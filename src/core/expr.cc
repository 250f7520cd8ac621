#include "core/expr.h"

#include <cstdlib>
#include <cstring>
#include <string_view>
#include <unordered_set>

#include "core/expr_bc.h"
#include "core/types.h"

namespace modularis {

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kSum: return "sum";
    case AggKind::kCount: return "count";
    case AggKind::kMin: return "min";
    case AggKind::kMax: return "max";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Group-key serialization + hash kernels
// ---------------------------------------------------------------------------

KeyCodec::KeyCodec(const Schema& schema, const std::vector<int>& key_cols) {
  parts_.reserve(key_cols.size());
  uint32_t off = 0;
  for (int c : key_cols) {
    const Field& f = schema.field(c);
    uint32_t bytes = 0;
    switch (f.type) {
      case AtomType::kInt32:
      case AtomType::kDate:
        bytes = 4;
        break;
      case AtomType::kInt64:
      case AtomType::kFloat64:
        bytes = 8;
        break;
      case AtomType::kString:
        bytes = 2 + f.width;  // u16 length + zero-padded payload
        break;
    }
    parts_.push_back(Part{schema.offset(c), off, bytes});
    off += bytes;
  }
  key_size_ = off;
}

void KeyCodec::SerializeKeys(const RowSpan& rows, size_t begin, size_t n,
                             uint8_t* out) const {
  const size_t ks = key_size_;
  const size_t stride = rows.stride;
  for (const Part& part : parts_) {
    const uint8_t* src = rows.data + begin * stride + part.src_offset;
    uint8_t* dst = out + part.dst_offset;
    // Fixed-width copy loops per column: the constant-size memcpys compile
    // to single loads/stores, and each loop touches one source column at a
    // fixed stride (the per-row type switch of the old serializer gone).
    switch (part.bytes) {
      case 4:
        for (size_t i = 0; i < n; ++i) {
          std::memcpy(dst + i * ks, src + i * stride, 4);
        }
        break;
      case 8:
        for (size_t i = 0; i < n; ++i) {
          std::memcpy(dst + i * ks, src + i * stride, 8);
        }
        break;
      default:
        for (size_t i = 0; i < n; ++i) {
          std::memcpy(dst + i * ks, src + i * stride, part.bytes);
        }
    }
  }
}

void KeyCodec::SerializeKey(const RowRef& row, uint8_t* out) const {
  for (const Part& part : parts_) {
    std::memcpy(out + part.dst_offset, row.data() + part.src_offset,
                part.bytes);
  }
}

void HashKeysSpan(const uint8_t* keys, size_t n, uint32_t key_size,
                  uint64_t* out) {
  if (key_size == 8) {
    for (size_t i = 0; i < n; ++i) {
      uint64_t w;
      std::memcpy(&w, keys + i * 8, sizeof(w));
      out[i] = MixKeyHash64(w);
    }
    return;
  }
  // Every other width goes through HashKeyBytes so the per-row probe path
  // and this kernel agree bit-for-bit on every key (they feed one table).
  for (size_t i = 0; i < n; ++i) {
    out[i] = HashKeyBytes(keys + i * static_cast<size_t>(key_size), key_size);
  }
}

// ---------------------------------------------------------------------------
// Selection contract + bytecode emission defaults
// ---------------------------------------------------------------------------

Status ValidateSelection(const char* where, const uint32_t* sel, size_t n) {
  if (IsAscendingSel(sel, n)) return Status::OK();
  return Status::Internal(std::string(where) +
                          ": selection vector violates the strictly "
                          "ascending SelVector contract");
}

int Expr::BcEmitValue(BcCompiler& c, int sel) const {
  (void)c;
  (void)sel;
  return -1;  // no native form: the compiler emits a per-lane fallback
}

bool Expr::BcEmitFilter(BcCompiler& c, int sel) const {
  (void)c;
  (void)sel;
  return false;  // the compiler derives it from the value form
}

namespace {

// ---------------------------------------------------------------------------
// Node implementations
// ---------------------------------------------------------------------------

class ColumnRefExpr : public Expr {
 public:
  explicit ColumnRefExpr(int index) : index_(index) {}

  Item Eval(const RowRef& row) const override {
    const Field& f = row.schema().field(index_);
    switch (f.type) {
      case AtomType::kInt32:
      case AtomType::kDate:
        return Item(static_cast<int64_t>(row.GetInt32(index_)));
      case AtomType::kInt64:
        return Item(row.GetInt64(index_));
      case AtomType::kFloat64:
        return Item(row.GetFloat64(index_));
      case AtomType::kString:
        return Item(std::string(row.GetString(index_)));
    }
    return Item();
  }

  bool TryEvalView(const RowRef& row, ScalarView* out) const override {
    const Field& f = row.schema().field(index_);
    switch (f.type) {
      case AtomType::kInt32:
      case AtomType::kDate:
        out->tag = ScalarView::Tag::kInt;
        out->i = row.GetInt32(index_);
        return true;
      case AtomType::kInt64:
        out->tag = ScalarView::Tag::kInt;
        out->i = row.GetInt64(index_);
        return true;
      case AtomType::kFloat64:
        out->tag = ScalarView::Tag::kDouble;
        out->d = row.GetFloat64(index_);
        return true;
      case AtomType::kString:
        out->tag = ScalarView::Tag::kString;
        out->s = row.GetString(index_);
        return true;
    }
    return false;
  }

  BatchTag BatchType(const Schema& schema) const override {
    switch (schema.field(index_).type) {
      case AtomType::kInt32:
      case AtomType::kDate:
      case AtomType::kInt64:
        return BatchTag::kI64;
      case AtomType::kFloat64:
        return BatchTag::kF64;
      case AtomType::kString:
        return BatchTag::kStr;
    }
    return BatchTag::kItem;
  }

  int BcEmitValue(BcCompiler& c, int sel) const override {
    const Field& f = c.schema().field(index_);
    const uint32_t off = c.schema().offset(index_);
    BcInst in;
    in.s = static_cast<uint16_t>(sel);
    in.imm = off;
    int r;
    switch (f.type) {
      case AtomType::kInt32:
      case AtomType::kDate:
        in.op = BcOp::kLoadI32;
        r = c.NewReg(BatchTag::kI64);
        break;
      case AtomType::kInt64:
        in.op = BcOp::kLoadI64;
        r = c.NewReg(BatchTag::kI64);
        break;
      case AtomType::kFloat64:
        in.op = BcOp::kLoadF64;
        r = c.NewReg(BatchTag::kF64);
        break;
      case AtomType::kString:
        in.op = BcOp::kLoadStr;
        r = c.NewReg(BatchTag::kStr);
        break;
      default:
        return -1;
    }
    in.dst = static_cast<uint16_t>(r);
    c.Emit(in);
    return r;
  }

  void CollectColumns(std::vector<int>* cols) const override {
    cols->push_back(index_);
  }

  int AsColumnIndex() const override { return index_; }

  std::string ToString() const override {
    return "$" + std::to_string(index_);
  }

  ExprKind kind() const override { return ExprKind::kColumn; }

  int index() const { return index_; }

 private:
  int index_;
};

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Item value) : value_(std::move(value)) {}

  Item Eval(const RowRef&) const override { return value_; }

  bool TryEvalView(const RowRef&, ScalarView* out) const override {
    switch (value_.kind()) {
      case Item::Kind::kInt64:
        out->tag = ScalarView::Tag::kInt;
        out->i = value_.i64();
        return true;
      case Item::Kind::kFloat64:
        out->tag = ScalarView::Tag::kDouble;
        out->d = value_.f64();
        return true;
      case Item::Kind::kString:
        out->tag = ScalarView::Tag::kString;
        out->s = value_.str();
        return true;
      default:
        return false;
    }
  }

  BatchTag BatchType(const Schema&) const override {
    switch (value_.kind()) {
      case Item::Kind::kInt64: return BatchTag::kI64;
      case Item::Kind::kFloat64: return BatchTag::kF64;
      case Item::Kind::kString: return BatchTag::kStr;
      default: return BatchTag::kItem;
    }
  }

  std::string ToString() const override { return value_.ToString(); }

  ExprKind kind() const override { return ExprKind::kLiteral; }

  bool AsLiteral(Item* out) const override {
    *out = value_;
    return true;
  }

 private:
  Item value_;
};

int CompareViews(const ScalarView& a, const ScalarView& b) {
  if (a.tag == ScalarView::Tag::kString ||
      b.tag == ScalarView::Tag::kString) {
    return a.s.compare(b.s) < 0 ? -1 : (a.s == b.s ? 0 : 1);
  }
  if (a.tag == ScalarView::Tag::kDouble ||
      b.tag == ScalarView::Tag::kDouble) {
    double x = a.tag == ScalarView::Tag::kDouble
                   ? a.d
                   : static_cast<double>(a.i);
    double y = b.tag == ScalarView::Tag::kDouble
                   ? b.d
                   : static_cast<double>(b.i);
    return x < y ? -1 : (x == y ? 0 : 1);
  }
  return a.i < b.i ? -1 : (a.i == b.i ? 0 : 1);
}

class CompareExpr : public Expr {
 public:
  CompareExpr(CmpOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  bool EvalBool(const RowRef& row) const override {
    ScalarView a, b;
    if (!lhs_->TryEvalView(row, &a) || !rhs_->TryEvalView(row, &b)) {
      // Slow path: materialize items. Backing storage is local so
      // concurrent worker-thread evaluation never races (Expr trees are
      // shared between cloned chains).
      std::string sa, sb;
      Item ia = lhs_->Eval(row);
      Item ib = rhs_->Eval(row);
      a = ViewOf(ia, &sa);
      b = ViewOf(ib, &sb);
      return Holds(CompareViews(a, b));
    }
    return Holds(CompareViews(a, b));
  }

  Item Eval(const RowRef& row) const override {
    return Item(static_cast<int64_t>(EvalBool(row) ? 1 : 0));
  }

  Status EvalBoolChecked(const RowRef& row, bool* out) const override {
    ScalarView a, b;
    if (lhs_->TryEvalView(row, &a) && rhs_->TryEvalView(row, &b)) {
      *out = Holds(CompareViews(a, b));
      return Status::OK();
    }
    // Slow path: checked child evaluation, so a nested IF with a
    // non-numeric condition errors instead of silently taking the else
    // branch.
    Item ia, ib;
    MODULARIS_RETURN_NOT_OK(lhs_->EvalChecked(row, &ia));
    MODULARIS_RETURN_NOT_OK(rhs_->EvalChecked(row, &ib));
    std::string sa, sb;
    *out = Holds(CompareViews(ViewOf(ia, &sa), ViewOf(ib, &sb)));
    return Status::OK();
  }

  Status EvalChecked(const RowRef& row, Item* out) const override {
    bool b = false;
    MODULARIS_RETURN_NOT_OK(EvalBoolChecked(row, &b));
    *out = Item(static_cast<int64_t>(b ? 1 : 0));
    return Status::OK();
  }

  BatchTag BatchType(const Schema&) const override { return BatchTag::kI64; }

  int BcEmitValue(BcCompiler& c, int sel) const override {
    return c.EmitPredicateValue(*this, sel);
  }

  bool BcEmitFilter(BcCompiler& c, int sel) const override {
    const BatchTag lt = lhs_->BatchType(c.schema());
    const BatchTag rt = rhs_->BatchType(c.schema());
    if (lt == BatchTag::kItem || rt == BatchTag::kItem) {
      c.EmitFilterFallback(*this, sel);  // dynamically typed side
      return true;
    }
    // Both sides are always evaluated, in lhs-then-rhs order, like the
    // row path's checked slow path — so errors nested inside a side keep
    // their precedence even when the comparison ignores its value.
    int la = c.CompileValue(*lhs_, sel);
    int lb = c.CompileValue(*rhs_, sel);
    BcInst in;
    in.cmp = op_;
    in.s = static_cast<uint16_t>(sel);
    if (lt == BatchTag::kStr || rt == BatchTag::kStr) {
      // Mirrors CompareViews: a non-string side contributes the empty
      // view to the string comparison.
      in.op = BcOp::kFilterCmpStr;
      in.a = static_cast<uint16_t>(lt == BatchTag::kStr ? la : c.ConstStr(""));
      in.b = static_cast<uint16_t>(rt == BatchTag::kStr ? lb : c.ConstStr(""));
    } else if (lt == BatchTag::kF64 || rt == BatchTag::kF64) {
      in.op = BcOp::kFilterCmpF64;
      in.a = static_cast<uint16_t>(c.CastToF64(la, sel));
      in.b = static_cast<uint16_t>(c.CastToF64(lb, sel));
    } else {
      in.op = BcOp::kFilterCmpI64;
      in.a = static_cast<uint16_t>(la);
      in.b = static_cast<uint16_t>(lb);
    }
    c.Emit(in);
    return true;
  }

  void CollectColumns(std::vector<int>* cols) const override {
    lhs_->CollectColumns(cols);
    rhs_->CollectColumns(cols);
  }

  std::string ToString() const override {
    static const char* kNames[] = {"=", "<>", "<", "<=", ">", ">="};
    return "(" + lhs_->ToString() + " " + kNames[static_cast<int>(op_)] +
           " " + rhs_->ToString() + ")";
  }

  ExprKind kind() const override { return ExprKind::kCompare; }
  size_t NumExprChildren() const override { return 2; }
  ExprPtr ExprChild(size_t i) const override {
    return i == 0 ? lhs_ : (i == 1 ? rhs_ : nullptr);
  }
  ExprPtr RebuildWithChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<CompareExpr>(op_, std::move(c[0]),
                                         std::move(c[1]));
  }
  bool AsCompare(CmpOp* op) const override {
    *op = op_;
    return true;
  }

 private:
  bool Holds(int c) const {
    switch (op_) {
      case CmpOp::kEq: return c == 0;
      case CmpOp::kNe: return c != 0;
      case CmpOp::kLt: return c < 0;
      case CmpOp::kLe: return c <= 0;
      case CmpOp::kGt: return c > 0;
      case CmpOp::kGe: return c >= 0;
    }
    return false;
  }

  static ScalarView ViewOf(const Item& item, std::string* storage) {
    ScalarView v;
    switch (item.kind()) {
      case Item::Kind::kInt64:
        v.tag = ScalarView::Tag::kInt;
        v.i = item.i64();
        break;
      case Item::Kind::kFloat64:
        v.tag = ScalarView::Tag::kDouble;
        v.d = item.f64();
        break;
      case Item::Kind::kString:
        *storage = item.str();
        v.tag = ScalarView::Tag::kString;
        v.s = *storage;
        break;
      default:
        break;
    }
    return v;
  }

  CmpOp op_;
  ExprPtr lhs_, rhs_;
};

class ArithExpr : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Item Eval(const RowRef& row) const override {
    return Apply(lhs_->Eval(row), rhs_->Eval(row));
  }

  Status EvalChecked(const RowRef& row, Item* out) const override {
    Item a, b;
    MODULARIS_RETURN_NOT_OK(lhs_->EvalChecked(row, &a));
    MODULARIS_RETURN_NOT_OK(rhs_->EvalChecked(row, &b));
    *out = Apply(a, b);
    return Status::OK();
  }

  BatchTag BatchType(const Schema& schema) const override {
    const BatchTag lt = lhs_->BatchType(schema);
    const BatchTag rt = rhs_->BatchType(schema);
    if (lt == BatchTag::kStr || lt == BatchTag::kItem ||
        rt == BatchTag::kStr || rt == BatchTag::kItem) {
      return BatchTag::kItem;
    }
    if (op_ == ArithOp::kDiv) return BatchTag::kF64;  // division yields f64
    if (lt == BatchTag::kI64 && rt == BatchTag::kI64) return BatchTag::kI64;
    return BatchTag::kF64;
  }

  int BcEmitValue(BcCompiler& c, int sel) const override {
    const BatchTag tag = BatchType(c.schema());
    if (tag == BatchTag::kItem) return -1;  // per-lane fallback
    int a = c.CompileValue(*lhs_, sel);
    int b = c.CompileValue(*rhs_, sel);
    BcInst in;
    in.s = static_cast<uint16_t>(sel);
    if (tag == BatchTag::kI64) {
      switch (op_) {
        case ArithOp::kAdd: in.op = BcOp::kAddI64; break;
        case ArithOp::kSub: in.op = BcOp::kSubI64; break;
        case ArithOp::kMul: in.op = BcOp::kMulI64; break;
        case ArithOp::kDiv: return -1;  // unreachable: kDiv is typed kF64
      }
    } else {
      a = c.CastToF64(a, sel);
      b = c.CastToF64(b, sel);
      switch (op_) {
        case ArithOp::kAdd: in.op = BcOp::kAddF64; break;
        case ArithOp::kSub: in.op = BcOp::kSubF64; break;
        case ArithOp::kMul: in.op = BcOp::kMulF64; break;
        case ArithOp::kDiv: in.op = BcOp::kDivF64; break;
      }
    }
    int r = c.NewReg(tag);
    in.dst = static_cast<uint16_t>(r);
    in.a = static_cast<uint16_t>(a);
    in.b = static_cast<uint16_t>(b);
    c.Emit(in);
    return r;
  }

  void CollectColumns(std::vector<int>* cols) const override {
    lhs_->CollectColumns(cols);
    rhs_->CollectColumns(cols);
  }

  std::string ToString() const override {
    static const char* kNames[] = {"+", "-", "*", "/"};
    return "(" + lhs_->ToString() + " " + kNames[static_cast<int>(op_)] +
           " " + rhs_->ToString() + ")";
  }

  ExprKind kind() const override { return ExprKind::kArith; }
  size_t NumExprChildren() const override { return 2; }
  ExprPtr ExprChild(size_t i) const override {
    return i == 0 ? lhs_ : (i == 1 ? rhs_ : nullptr);
  }
  ExprPtr RebuildWithChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<ArithExpr>(op_, std::move(c[0]), std::move(c[1]));
  }

 private:
  /// The engine's arithmetic: i64 preserved when both sides are i64
  /// (except division, always f64), division by zero yields 0.0.
  Item Apply(const Item& a, const Item& b) const {
    if (op_ != ArithOp::kDiv && a.is_i64() && b.is_i64()) {
      switch (op_) {
        case ArithOp::kAdd: return Item(a.i64() + b.i64());
        case ArithOp::kSub: return Item(a.i64() - b.i64());
        case ArithOp::kMul: return Item(a.i64() * b.i64());
        default: break;
      }
    }
    double x = a.AsDouble();
    double y = b.AsDouble();
    switch (op_) {
      case ArithOp::kAdd: return Item(x + y);
      case ArithOp::kSub: return Item(x - y);
      case ArithOp::kMul: return Item(x * y);
      case ArithOp::kDiv: return Item(y == 0 ? 0.0 : x / y);
    }
    return Item();
  }

  ArithOp op_;
  ExprPtr lhs_, rhs_;
};

class AndExpr : public Expr {
 public:
  explicit AndExpr(std::vector<ExprPtr> children)
      : children_(std::move(children)) {}

  bool EvalBool(const RowRef& row) const override {
    for (const ExprPtr& c : children_) {
      if (!c->EvalBool(row)) return false;
    }
    return true;
  }

  Item Eval(const RowRef& row) const override {
    return Item(static_cast<int64_t>(EvalBool(row) ? 1 : 0));
  }

  Status EvalBoolChecked(const RowRef& row, bool* out) const override {
    for (const ExprPtr& c : children_) {
      bool b = false;
      MODULARIS_RETURN_NOT_OK(c->EvalBoolChecked(row, &b));
      if (!b) {
        *out = false;
        return Status::OK();
      }
    }
    *out = true;
    return Status::OK();
  }

  Status EvalChecked(const RowRef& row, Item* out) const override {
    bool b = false;
    MODULARIS_RETURN_NOT_OK(EvalBoolChecked(row, &b));
    *out = Item(static_cast<int64_t>(b ? 1 : 0));
    return Status::OK();
  }

  BatchTag BatchType(const Schema&) const override { return BatchTag::kI64; }

  int BcEmitValue(BcCompiler& c, int sel) const override {
    return c.EmitPredicateValue(*this, sel);
  }

  bool BcEmitFilter(BcCompiler& c, int sel) const override {
    // Sequential child filters with short-circuit jumps between them:
    // once the selection runs dry, the remaining children are skipped
    // in one bound.
    std::vector<size_t> jumps;
    for (size_t i = 0; i < children_.size(); ++i) {
      if (i > 0) jumps.push_back(c.EmitJumpIfEmpty(sel));
      c.CompileFilter(*children_[i], sel);
    }
    for (size_t pc : jumps) c.PatchJump(pc);
    return true;
  }

  void CollectColumns(std::vector<int>* cols) const override {
    for (const ExprPtr& c : children_) c->CollectColumns(cols);
  }

  std::string ToString() const override {
    std::string out = "(";
    for (size_t i = 0; i < children_.size(); ++i) {
      if (i > 0) out += " AND ";
      out += children_[i]->ToString();
    }
    return out + ")";
  }

  const std::vector<ExprPtr>& children() const { return children_; }

  ExprKind kind() const override { return ExprKind::kAnd; }
  size_t NumExprChildren() const override { return children_.size(); }
  ExprPtr ExprChild(size_t i) const override {
    return i < children_.size() ? children_[i] : nullptr;
  }
  ExprPtr RebuildWithChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<AndExpr>(std::move(c));
  }

 private:
  std::vector<ExprPtr> children_;
};

class OrExpr : public Expr {
 public:
  explicit OrExpr(std::vector<ExprPtr> children)
      : children_(std::move(children)) {}

  bool EvalBool(const RowRef& row) const override {
    for (const ExprPtr& c : children_) {
      if (c->EvalBool(row)) return true;
    }
    return false;
  }

  Item Eval(const RowRef& row) const override {
    return Item(static_cast<int64_t>(EvalBool(row) ? 1 : 0));
  }

  Status EvalBoolChecked(const RowRef& row, bool* out) const override {
    for (const ExprPtr& c : children_) {
      bool b = false;
      MODULARIS_RETURN_NOT_OK(c->EvalBoolChecked(row, &b));
      if (b) {
        *out = true;
        return Status::OK();
      }
    }
    *out = false;
    return Status::OK();
  }

  Status EvalChecked(const RowRef& row, Item* out) const override {
    bool b = false;
    MODULARIS_RETURN_NOT_OK(EvalBoolChecked(row, &b));
    *out = Item(static_cast<int64_t>(b ? 1 : 0));
    return Status::OK();
  }

  BatchTag BatchType(const Schema&) const override { return BatchTag::kI64; }

  int BcEmitValue(BcCompiler& c, int sel) const override {
    return c.EmitPredicateValue(*this, sel);
  }

  bool BcEmitFilter(BcCompiler& c, int sel) const override {
    // Each child filters only what every earlier child rejected (the
    // short-circuit dual of AND's narrowing); matches are accumulated in
    // `accepted` and re-sorted at the end.
    const int remaining = c.NewSel();
    const int accepted = c.NewSel();
    const int tmp = c.NewSel();
    auto sel_op = [&c](BcOp op, int s, int s2) {
      BcInst in;
      in.op = op;
      in.s = static_cast<uint16_t>(s);
      in.s2 = static_cast<uint16_t>(s2);
      c.Emit(in);
    };
    sel_op(BcOp::kSelCopy, remaining, sel);
    sel_op(BcOp::kFilterClear, accepted, 0);
    std::vector<size_t> jumps;
    for (const ExprPtr& child : children_) {
      jumps.push_back(c.EmitJumpIfEmpty(remaining));
      sel_op(BcOp::kSelCopy, tmp, remaining);
      c.CompileFilter(*child, tmp);
      sel_op(BcOp::kSelAppend, accepted, tmp);
      sel_op(BcOp::kSelSub, remaining, tmp);
    }
    for (size_t pc : jumps) c.PatchJump(pc);
    sel_op(BcOp::kSelSort, accepted, 0);
    sel_op(BcOp::kSelCopy, sel, accepted);
    return true;
  }

  void CollectColumns(std::vector<int>* cols) const override {
    for (const ExprPtr& c : children_) c->CollectColumns(cols);
  }

  std::string ToString() const override {
    std::string out = "(";
    for (size_t i = 0; i < children_.size(); ++i) {
      if (i > 0) out += " OR ";
      out += children_[i]->ToString();
    }
    return out + ")";
  }

  ExprKind kind() const override { return ExprKind::kOr; }
  size_t NumExprChildren() const override { return children_.size(); }
  ExprPtr ExprChild(size_t i) const override {
    return i < children_.size() ? children_[i] : nullptr;
  }
  ExprPtr RebuildWithChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<OrExpr>(std::move(c));
  }

 private:
  std::vector<ExprPtr> children_;
};

class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprPtr inner) : inner_(std::move(inner)) {}

  bool EvalBool(const RowRef& row) const override {
    return !inner_->EvalBool(row);
  }
  Item Eval(const RowRef& row) const override {
    return Item(static_cast<int64_t>(EvalBool(row) ? 1 : 0));
  }
  Status EvalBoolChecked(const RowRef& row, bool* out) const override {
    bool b = false;
    MODULARIS_RETURN_NOT_OK(inner_->EvalBoolChecked(row, &b));
    *out = !b;
    return Status::OK();
  }
  Status EvalChecked(const RowRef& row, Item* out) const override {
    bool b = false;
    MODULARIS_RETURN_NOT_OK(EvalBoolChecked(row, &b));
    *out = Item(static_cast<int64_t>(b ? 1 : 0));
    return Status::OK();
  }
  BatchTag BatchType(const Schema&) const override { return BatchTag::kI64; }
  int BcEmitValue(BcCompiler& c, int sel) const override {
    return c.EmitPredicateValue(*this, sel);
  }
  bool BcEmitFilter(BcCompiler& c, int sel) const override {
    // Filter a copy, then subtract the survivors from the input.
    const int tmp = c.NewSel();
    BcInst cp;
    cp.op = BcOp::kSelCopy;
    cp.s = static_cast<uint16_t>(tmp);
    cp.s2 = static_cast<uint16_t>(sel);
    c.Emit(cp);
    c.CompileFilter(*inner_, tmp);
    BcInst sub;
    sub.op = BcOp::kSelSub;
    sub.s = static_cast<uint16_t>(sel);
    sub.s2 = static_cast<uint16_t>(tmp);
    c.Emit(sub);
    return true;
  }
  void CollectColumns(std::vector<int>* cols) const override {
    inner_->CollectColumns(cols);
  }
  std::string ToString() const override {
    return "NOT " + inner_->ToString();
  }

  ExprKind kind() const override { return ExprKind::kNot; }
  size_t NumExprChildren() const override { return 1; }
  ExprPtr ExprChild(size_t i) const override {
    return i == 0 ? inner_ : nullptr;
  }
  ExprPtr RebuildWithChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<NotExpr>(std::move(c[0]));
  }

 private:
  ExprPtr inner_;
};

}  // namespace

/// Iterative SQL LIKE matcher supporting '%' and '_'.
bool LikeMatch(std::string_view text, std::string_view pattern) {
  size_t ti = 0, pi = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (ti < text.size()) {
    if (pi < pattern.size() &&
        (pattern[pi] == '_' || pattern[pi] == text[ti])) {
      ++ti;
      ++pi;
    } else if (pi < pattern.size() && pattern[pi] == '%') {
      star_p = pi++;
      star_t = ti;
    } else if (star_p != std::string_view::npos) {
      pi = star_p + 1;
      ti = ++star_t;
    } else {
      return false;
    }
  }
  while (pi < pattern.size() && pattern[pi] == '%') ++pi;
  return pi == pattern.size();
}

namespace {

class LikeExpr : public Expr {
 public:
  LikeExpr(ExprPtr input, std::string pattern)
      : input_(std::move(input)), pattern_(std::move(pattern)) {}

  bool EvalBool(const RowRef& row) const override {
    ScalarView v;
    if (input_->TryEvalView(row, &v) && v.tag == ScalarView::Tag::kString) {
      return LikeMatch(v.s, pattern_);
    }
    Item item = input_->Eval(row);
    return item.is_str() && LikeMatch(item.str(), pattern_);
  }

  Item Eval(const RowRef& row) const override {
    return Item(static_cast<int64_t>(EvalBool(row) ? 1 : 0));
  }

  Status EvalBoolChecked(const RowRef& row, bool* out) const override {
    ScalarView v;
    if (input_->TryEvalView(row, &v) && v.tag == ScalarView::Tag::kString) {
      *out = LikeMatch(v.s, pattern_);
      return Status::OK();
    }
    Item item;
    MODULARIS_RETURN_NOT_OK(input_->EvalChecked(row, &item));
    *out = item.is_str() && LikeMatch(item.str(), pattern_);
    return Status::OK();
  }

  Status EvalChecked(const RowRef& row, Item* out) const override {
    bool b = false;
    MODULARIS_RETURN_NOT_OK(EvalBoolChecked(row, &b));
    *out = Item(static_cast<int64_t>(b ? 1 : 0));
    return Status::OK();
  }

  BatchTag BatchType(const Schema&) const override { return BatchTag::kI64; }

  int BcEmitValue(BcCompiler& c, int sel) const override {
    return c.EmitPredicateValue(*this, sel);
  }

  bool BcEmitFilter(BcCompiler& c, int sel) const override {
    switch (input_->BatchType(c.schema())) {
      case BatchTag::kI64:
      case BatchTag::kF64: {
        BcInst in;
        in.op = BcOp::kFilterClear;
        in.s = static_cast<uint16_t>(sel);
        c.Emit(in);
        return true;
      }
      case BatchTag::kStr: {
        const int r = c.CompileValue(*input_, sel);
        BcInst in;
        in.op = BcOp::kFilterLike;
        in.a = static_cast<uint16_t>(r);
        in.s = static_cast<uint16_t>(sel);
        in.imm = c.AddPattern(pattern_);
        c.Emit(in);
        return true;
      }
      case BatchTag::kItem:
        c.EmitFilterFallback(*this, sel);
        return true;
    }
    return false;
  }

  void CollectColumns(std::vector<int>* cols) const override {
    input_->CollectColumns(cols);
  }

  std::string ToString() const override {
    return input_->ToString() + " LIKE '" + pattern_ + "'";
  }

  ExprKind kind() const override { return ExprKind::kLike; }
  size_t NumExprChildren() const override { return 1; }
  ExprPtr ExprChild(size_t i) const override {
    return i == 0 ? input_ : nullptr;
  }
  ExprPtr RebuildWithChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<LikeExpr>(std::move(c[0]), pattern_);
  }

 private:
  ExprPtr input_;
  std::string pattern_;
};

class InStrExpr : public Expr {
 public:
  InStrExpr(ExprPtr input, std::vector<std::string> values)
      : input_(std::move(input)),
        values_(values.begin(), values.end()) {}

  bool EvalBool(const RowRef& row) const override {
    ScalarView v;
    if (input_->TryEvalView(row, &v) && v.tag == ScalarView::Tag::kString) {
      return Contains(v.s);
    }
    Item item = input_->Eval(row);
    return item.is_str() && Contains(item.str());
  }

  Item Eval(const RowRef& row) const override {
    return Item(static_cast<int64_t>(EvalBool(row) ? 1 : 0));
  }

  Status EvalBoolChecked(const RowRef& row, bool* out) const override {
    ScalarView v;
    if (input_->TryEvalView(row, &v) && v.tag == ScalarView::Tag::kString) {
      *out = Contains(v.s);
      return Status::OK();
    }
    Item item;
    MODULARIS_RETURN_NOT_OK(input_->EvalChecked(row, &item));
    *out = item.is_str() && Contains(item.str());
    return Status::OK();
  }

  Status EvalChecked(const RowRef& row, Item* out) const override {
    bool b = false;
    MODULARIS_RETURN_NOT_OK(EvalBoolChecked(row, &b));
    *out = Item(static_cast<int64_t>(b ? 1 : 0));
    return Status::OK();
  }

  BatchTag BatchType(const Schema&) const override { return BatchTag::kI64; }

  int BcEmitValue(BcCompiler& c, int sel) const override {
    return c.EmitPredicateValue(*this, sel);
  }

  bool BcEmitFilter(BcCompiler& c, int sel) const override {
    switch (input_->BatchType(c.schema())) {
      case BatchTag::kI64:
      case BatchTag::kF64: {
        BcInst in;
        in.op = BcOp::kFilterClear;
        in.s = static_cast<uint16_t>(sel);
        c.Emit(in);
        return true;
      }
      case BatchTag::kStr: {
        const int r = c.CompileValue(*input_, sel);
        BcInst in;
        in.op = BcOp::kFilterInStr;
        in.a = static_cast<uint16_t>(r);
        in.s = static_cast<uint16_t>(sel);
        in.imm = c.AddStrSet(
            std::vector<std::string>(values_.begin(), values_.end()));
        c.Emit(in);
        return true;
      }
      case BatchTag::kItem:
        c.EmitFilterFallback(*this, sel);
        return true;
    }
    return false;
  }

  void CollectColumns(std::vector<int>* cols) const override {
    input_->CollectColumns(cols);
  }

  std::string ToString() const override {
    std::string out = input_->ToString() + " IN (";
    bool first = true;
    for (const auto& v : values_) {
      if (!first) out += ", ";
      out += "'" + v + "'";
      first = false;
    }
    return out + ")";
  }

  ExprKind kind() const override { return ExprKind::kInStr; }
  size_t NumExprChildren() const override { return 1; }
  ExprPtr ExprChild(size_t i) const override {
    return i == 0 ? input_ : nullptr;
  }
  ExprPtr RebuildWithChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<InStrExpr>(
        std::move(c[0]),
        std::vector<std::string>(values_.begin(), values_.end()));
  }
  size_t InListSize() const override { return values_.size(); }

 private:
  // Transparent hashing so membership tests take string_view without a
  // per-row std::string allocation (the row path's hot loop).
  struct SvHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  bool Contains(std::string_view s) const {
    return values_.find(s) != values_.end();
  }

  ExprPtr input_;
  std::unordered_set<std::string, SvHash, std::equal_to<>> values_;
};

class InIntExpr : public Expr {
 public:
  InIntExpr(ExprPtr input, std::vector<int64_t> values)
      : input_(std::move(input)), values_(std::move(values)) {}

  bool EvalBool(const RowRef& row) const override {
    ScalarView v;
    int64_t x;
    if (input_->TryEvalView(row, &v) && v.tag == ScalarView::Tag::kInt) {
      x = v.i;
    } else {
      Item item = input_->Eval(row);
      if (!item.is_i64()) return false;
      x = item.i64();
    }
    for (int64_t candidate : values_) {
      if (candidate == x) return true;
    }
    return false;
  }

  Item Eval(const RowRef& row) const override {
    return Item(static_cast<int64_t>(EvalBool(row) ? 1 : 0));
  }

  Status EvalBoolChecked(const RowRef& row, bool* out) const override {
    ScalarView v;
    if (input_->TryEvalView(row, &v) && v.tag == ScalarView::Tag::kInt) {
      *out = Contains(v.i);
      return Status::OK();
    }
    Item item;
    MODULARIS_RETURN_NOT_OK(input_->EvalChecked(row, &item));
    *out = item.is_i64() && Contains(item.i64());
    return Status::OK();
  }

  Status EvalChecked(const RowRef& row, Item* out) const override {
    bool b = false;
    MODULARIS_RETURN_NOT_OK(EvalBoolChecked(row, &b));
    *out = Item(static_cast<int64_t>(b ? 1 : 0));
    return Status::OK();
  }

  BatchTag BatchType(const Schema&) const override { return BatchTag::kI64; }

  int BcEmitValue(BcCompiler& c, int sel) const override {
    return c.EmitPredicateValue(*this, sel);
  }

  bool BcEmitFilter(BcCompiler& c, int sel) const override {
    switch (input_->BatchType(c.schema())) {
      case BatchTag::kF64:
      case BatchTag::kStr: {
        BcInst in;
        in.op = BcOp::kFilterClear;
        in.s = static_cast<uint16_t>(sel);
        c.Emit(in);
        return true;
      }
      case BatchTag::kI64: {
        const int r = c.CompileValue(*input_, sel);
        BcInst in;
        in.op = BcOp::kFilterInI64;
        in.a = static_cast<uint16_t>(r);
        in.s = static_cast<uint16_t>(sel);
        in.imm = c.AddIntSet(values_);
        c.Emit(in);
        return true;
      }
      case BatchTag::kItem:
        c.EmitFilterFallback(*this, sel);
        return true;
    }
    return false;
  }

  void CollectColumns(std::vector<int>* cols) const override {
    input_->CollectColumns(cols);
  }

  std::string ToString() const override {
    std::string out = input_->ToString() + " IN (";
    for (size_t i = 0; i < values_.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(values_[i]);
    }
    return out + ")";
  }

  ExprKind kind() const override { return ExprKind::kInInt; }
  size_t NumExprChildren() const override { return 1; }
  ExprPtr ExprChild(size_t i) const override {
    return i == 0 ? input_ : nullptr;
  }
  ExprPtr RebuildWithChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<InIntExpr>(std::move(c[0]), values_);
  }
  size_t InListSize() const override { return values_.size(); }

 private:
  bool Contains(int64_t x) const {
    for (int64_t candidate : values_) {
      if (candidate == x) return true;
    }
    return false;
  }

  ExprPtr input_;
  std::vector<int64_t> values_;
};

class IfExpr : public Expr {
 public:
  IfExpr(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr)
      : cond_(std::move(cond)),
        then_(std::move(then_expr)),
        else_(std::move(else_expr)) {}

  Item Eval(const RowRef& row) const override {
    return cond_->EvalBool(row) ? then_->Eval(row) : else_->Eval(row);
  }

  Status EvalChecked(const RowRef& row, Item* out) const override {
    // The checked row tier routes the condition through EvalBoolChecked:
    // a string-valued condition is a hard error here, exactly as it is on
    // the bytecode tier (unchecked Eval() keeps the legacy
    // silent-false coercion for callers that ask for it explicitly).
    bool cond = false;
    MODULARIS_RETURN_NOT_OK(cond_->EvalBoolChecked(row, &cond));
    return (cond ? then_ : else_)->EvalChecked(row, out);
  }

  BatchTag BatchType(const Schema& schema) const override {
    const BatchTag t = then_->BatchType(schema);
    const BatchTag e = else_->BatchType(schema);
    // Branches of different static types produce per-row dynamic typing —
    // exactly what the per-lane kItem fallback exists for.
    return (t == e && t != BatchTag::kItem) ? t : BatchTag::kItem;
  }

  int BcEmitValue(BcCompiler& c, int sel) const override {
    // Dead-branch elimination: a constant numeric condition selects one
    // branch at compile time; the other is never emitted (even if it is
    // a kItem subtree the compiler could only run per lane).
    Item cv;
    if (c.TryConstEval(*cond_, &cv) && (cv.is_i64() || cv.is_f64())) {
      const bool truthy = cv.is_i64() ? cv.i64() != 0 : cv.f64() != 0;
      return c.CompileValue(truthy ? *then_ : *else_, sel);
    }
    const BatchTag tag = BatchType(c.schema());
    if (tag == BatchTag::kItem) return -1;  // per-row dynamic typing
    // Split the selection by the (checked) condition, evaluate each
    // branch only on its rows, and merge positionally.
    const int passed = c.NewSel();
    const int failed = c.NewSel();
    auto sel_op = [&c](BcOp op, int s, int s2) {
      BcInst in;
      in.op = op;
      in.s = static_cast<uint16_t>(s);
      in.s2 = static_cast<uint16_t>(s2);
      c.Emit(in);
    };
    sel_op(BcOp::kSelCopy, passed, sel);
    c.CompileFilter(*cond_, passed);
    sel_op(BcOp::kSelCopy, failed, sel);
    sel_op(BcOp::kSelSub, failed, passed);
    const size_t jt = c.EmitJumpIfEmpty(passed);
    const int then_reg_live = c.CompileValue(*then_, passed);
    c.PatchJump(jt);
    const size_t je = c.EmitJumpIfEmpty(failed);
    const int else_reg_live = c.CompileValue(*else_, failed);
    c.PatchJump(je);
    const int dst = c.NewReg(tag);
    BcInst mg;
    mg.op = tag == BatchTag::kI64   ? BcOp::kMergeI64
            : tag == BatchTag::kF64 ? BcOp::kMergeF64
                                    : BcOp::kMergeStr;
    mg.dst = static_cast<uint16_t>(dst);
    mg.a = static_cast<uint16_t>(then_reg_live);
    mg.b = static_cast<uint16_t>(else_reg_live);
    mg.s = static_cast<uint16_t>(sel);
    mg.s2 = static_cast<uint16_t>(passed);
    c.Emit(mg);
    return dst;
  }

  void CollectColumns(std::vector<int>* cols) const override {
    cond_->CollectColumns(cols);
    then_->CollectColumns(cols);
    else_->CollectColumns(cols);
  }

  std::string ToString() const override {
    return "IF(" + cond_->ToString() + ", " + then_->ToString() + ", " +
           else_->ToString() + ")";
  }

  ExprKind kind() const override { return ExprKind::kIf; }
  size_t NumExprChildren() const override { return 3; }
  ExprPtr ExprChild(size_t i) const override {
    switch (i) {
      case 0: return cond_;
      case 1: return then_;
      case 2: return else_;
      default: return nullptr;
    }
  }
  ExprPtr RebuildWithChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<IfExpr>(std::move(c[0]), std::move(c[1]),
                                    std::move(c[2]));
  }

 private:
  ExprPtr cond_, then_, else_;
};

}  // namespace

namespace ex {

ExprPtr Col(int index) { return std::make_shared<ColumnRefExpr>(index); }
ExprPtr Lit(int64_t v) { return std::make_shared<LiteralExpr>(Item(v)); }
ExprPtr Lit(double v) { return std::make_shared<LiteralExpr>(Item(v)); }
ExprPtr Lit(std::string v) {
  return std::make_shared<LiteralExpr>(Item(std::move(v)));
}

ExprPtr DateLit(std::string_view ymd) {
  Result<int32_t> date = ParseDate(ymd);
  if (!date.ok()) std::abort();  // malformed compile-time constant
  return Lit(static_cast<int64_t>(date.value()));
}

ExprPtr Cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<CompareExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Eq(ExprPtr l, ExprPtr r) { return Cmp(CmpOp::kEq, l, r); }
ExprPtr Ne(ExprPtr l, ExprPtr r) { return Cmp(CmpOp::kNe, l, r); }
ExprPtr Lt(ExprPtr l, ExprPtr r) { return Cmp(CmpOp::kLt, l, r); }
ExprPtr Le(ExprPtr l, ExprPtr r) { return Cmp(CmpOp::kLe, l, r); }
ExprPtr Gt(ExprPtr l, ExprPtr r) { return Cmp(CmpOp::kGt, l, r); }
ExprPtr Ge(ExprPtr l, ExprPtr r) { return Cmp(CmpOp::kGe, l, r); }

ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ArithExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Add(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kAdd, l, r); }
ExprPtr Sub(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kSub, l, r); }
ExprPtr Mul(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kMul, l, r); }
ExprPtr Div(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kDiv, l, r); }

ExprPtr And(std::vector<ExprPtr> children) {
  if (children.size() == 1) return children[0];
  return std::make_shared<AndExpr>(std::move(children));
}
ExprPtr And(ExprPtr a, ExprPtr b) { return And({std::move(a), std::move(b)}); }
ExprPtr And(ExprPtr a, ExprPtr b, ExprPtr c) {
  return And({std::move(a), std::move(b), std::move(c)});
}
ExprPtr Or(std::vector<ExprPtr> children) {
  if (children.size() == 1) return children[0];
  return std::make_shared<OrExpr>(std::move(children));
}
ExprPtr Or(ExprPtr a, ExprPtr b) { return Or({std::move(a), std::move(b)}); }
ExprPtr Not(ExprPtr inner) { return std::make_shared<NotExpr>(inner); }

ExprPtr Like(ExprPtr input, std::string pattern) {
  return std::make_shared<LikeExpr>(std::move(input), std::move(pattern));
}
ExprPtr InStr(ExprPtr input, std::vector<std::string> values) {
  return std::make_shared<InStrExpr>(std::move(input), std::move(values));
}
ExprPtr InInt(ExprPtr input, std::vector<int64_t> values) {
  return std::make_shared<InIntExpr>(std::move(input), std::move(values));
}
ExprPtr Between(ExprPtr input, ExprPtr lo, ExprPtr hi) {
  return And(Cmp(CmpOp::kGe, input, std::move(lo)),
             Cmp(CmpOp::kLe, input, std::move(hi)));
}
ExprPtr If(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr) {
  return std::make_shared<IfExpr>(std::move(cond), std::move(then_expr),
                                  std::move(else_expr));
}

}  // namespace ex

}  // namespace modularis
