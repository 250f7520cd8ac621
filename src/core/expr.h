#ifndef MODULARIS_CORE_EXPR_H_
#define MODULARIS_CORE_EXPR_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/row_vector.h"
#include "core/status.h"
#include "core/tuple.h"

/// \file expr.h
/// Scalar expression trees evaluated against packed rows. Filter, Map,
/// Projection and the predicate/projection pushdown passes are built on
/// these. In the paper the UDFs are Numba-compiled Python inlined into the
/// LLVM plan; here they are C++ expression trees (or std::function callables
/// in ParametrizedMap) inlined into fused loops by the fusion pass.

namespace modularis {

/// Comparison operators.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };
/// Arithmetic operators. Division always yields f64; the others preserve
/// integer-ness when both sides are integers.
enum class ArithOp { kAdd, kSub, kMul, kDiv };

/// Borrowed scalar view used on the non-allocating comparison fast path.
struct ScalarView {
  enum class Tag : uint8_t { kInt, kDouble, kString } tag = Tag::kInt;
  int64_t i = 0;
  double d = 0;
  std::string_view s;
};

// -- Batch expression evaluation --------------------------------------------
// Expressions evaluate a whole batch of packed rows at once through the
// bytecode tier (core/expr_bc.h; docs/DESIGN-vectorized.md, "Batch
// expression evaluation"). Predicates narrow *selection vectors* instead
// of producing per-row booleans, so filtered rows are never copied before
// projection; value programs fill typed columns. Nodes that cannot be
// statically typed (mixed-type IF branches) run the row-at-a-time
// EvalChecked() oracle once per selected lane.

/// Ascending indices of the rows of a batch that are still live.
using SelVector = std::vector<uint32_t>;

/// True when sel[0..n) is strictly ascending — the SelVector contract every
/// bytecode kernel assumes. The contiguous-run fast paths detect dense runs by
/// their endpoints (sel[n-1] - sel[0] == n - 1), so a permuted selection
/// would silently mis-assign lanes instead of failing.
inline bool IsAscendingSel(const uint32_t* sel, size_t n) {
  for (size_t i = 1; i < n; ++i) {
    if (sel[i] <= sel[i - 1]) return false;
  }
  return true;
}

/// Release-mode defense of the SelVector contract at kernel entry points
/// (operators validate inherited selections before handing them to the
/// typed kernels; the bytecode tier validates at program entry). Returns
/// Internal mentioning `where` on a violation. One predictable pass over
/// memory the kernels are about to touch anyway.
Status ValidateSelection(const char* where, const uint32_t* sel, size_t n);

/// A span of packed rows handed to bytecode programs (the data/stride/schema
/// triple of a RowBatch without the ownership machinery).
struct RowSpan {
  const uint8_t* data = nullptr;
  uint32_t stride = 0;
  const Schema* schema = nullptr;

  const uint8_t* row_ptr(uint32_t r) const {
    return data + static_cast<size_t>(r) * stride;
  }
  RowRef row(uint32_t r) const { return RowRef(row_ptr(r), schema); }
};

/// Static result type of an expression over one schema. kItem marks the
/// per-lane fallback: the node's dynamic type can vary per row, so batch
/// evaluation stores whole Items computed by the row oracle.
enum class BatchTag : uint8_t { kI64, kF64, kStr, kItem };

/// One value per selected row, in the statically derived representation.
/// String entries are borrowed views into the rows / literal nodes and
/// stay valid as long as the batch they were evaluated from.
struct BatchColumn {
  BatchTag tag = BatchTag::kI64;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<std::string_view> str;
  std::vector<Item> items;  // per-lane row-oracle fallback (kItem)

  /// Re-types the column and sizes the active vector (capacity reused).
  void Reset(BatchTag t, size_t n) {
    tag = t;
    switch (t) {
      case BatchTag::kI64: i64.resize(n); break;
      case BatchTag::kF64: f64.resize(n); break;
      case BatchTag::kStr: str.resize(n); break;
      case BatchTag::kItem: items.resize(n); break;
    }
  }
  size_t size() const {
    switch (tag) {
      case BatchTag::kI64: return i64.size();
      case BatchTag::kF64: return f64.size();
      case BatchTag::kStr: return str.size();
      case BatchTag::kItem: return items.size();
    }
    return 0;
  }
};

// -- Group-key serialization + hash kernels ---------------------------------
// Grouping operators (ReduceByKey, the partition-owned parallel
// aggregation pass) compare group keys as fixed-stride byte strings.
// KeyCodec compiles a (schema, key columns) pair into a column-wise
// serializer — one tight fixed-width copy loop per key column instead of
// a per-row type switch — and HashKeysSpan hashes the serialized keys in
// one pass. Both the radix partition pass and the state-table probes
// consume the same bytes/hashes, so partition assignment is a pure
// function of the key.

/// Fixed-stride serialized group keys. Each key column contributes its
/// packed-row field bytes verbatim: 4 bytes for i32/date, 8 for i64/f64
/// (so f64 keys group by bit pattern, exactly like the row-at-a-time
/// path), and `2 + width` for strings. Strings rely on the packed-row
/// invariant that RowWriter::SetString zero-fills the tail, which makes
/// the fixed-width field bytes a canonical encoding of the value.
class KeyCodec {
 public:
  KeyCodec() = default;
  KeyCodec(const Schema& schema, const std::vector<int>& key_cols);

  /// Bytes per serialized key (fixed for the schema; 0 for no columns).
  uint32_t key_size() const { return key_size_; }

  /// Serializes the keys of rows [begin, begin + n) of `rows` into `out`
  /// (n * key_size() bytes), column-wise: one fixed-width copy loop per
  /// key column.
  void SerializeKeys(const RowSpan& rows, size_t begin, size_t n,
                     uint8_t* out) const;

  /// Single-row form for per-row probes (the serial selective path).
  void SerializeKey(const RowRef& row, uint8_t* out) const;

  struct Part {
    uint32_t src_offset;  // byte offset inside the packed row
    uint32_t dst_offset;  // byte offset inside the serialized key
    uint32_t bytes;
  };
  /// Layout of the serialized key, one entry per key column. KeyProgram
  /// (core/expr_bc.h) compiles these into fused serialize+hash kernels.
  const std::vector<Part>& parts() const { return parts_; }

 private:
  std::vector<Part> parts_;
  uint32_t key_size_ = 0;
};

/// splitmix64-style finalizer used by the key hash kernels. Self-contained
/// so core/ stays independent of the sub-operator radix header.
inline uint64_t MixKeyHash64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// 64-bit hash of one serialized key (word-wise mix over the fixed-size
/// bytes). Deterministic across runs and platforms of equal endianness —
/// the partition pass derives partition ids from the high bits, the state
/// tables consume the low bits, so the two never alias.
inline uint64_t HashKeyBytes(const uint8_t* key, uint32_t len) {
  if (len == 8) {
    uint64_t w;
    std::memcpy(&w, key, sizeof(w));
    return MixKeyHash64(w);
  }
  uint64_t h = 0x9e3779b97f4a7c15ull ^ len;
  uint32_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    std::memcpy(&w, key + i, sizeof(w));
    h = MixKeyHash64(h ^ w);
  }
  if (i < len) {
    uint64_t w = 0;
    std::memcpy(&w, key + i, len - i);
    h = MixKeyHash64(h ^ w);
  }
  return h;
}

/// Hash kernel over `n` serialized keys of `key_size` bytes each, packed
/// at a fixed stride (the KeyCodec output layout): fills out[0..n).
void HashKeysSpan(const uint8_t* keys, size_t n, uint32_t key_size,
                  uint64_t* out);

/// SQL LIKE matcher supporting '%' and '_' — shared by the row
/// interpreter and the bytecode LIKE kernel so both tiers match
/// byte-for-byte.
bool LikeMatch(std::string_view text, std::string_view pattern);

/// Structural kind of an expression node. The planner's rewrite passes
/// (src/planner/) dispatch on this to walk and rebuild trees without
/// depending on the concrete node classes, which stay private to expr.cc.
enum class ExprKind {
  kOther,
  kColumn,
  kLiteral,
  kCompare,
  kArith,
  kAnd,
  kOr,
  kNot,
  kLike,
  kInStr,
  kInInt,
  kIf,
};

class BcCompiler;  // core/expr_bc.h — bytecode compilation tier

/// Immutable expression node. Expressions are shared (shared_ptr) between
/// plans and passes.
class Expr {
 public:
  virtual ~Expr() = default;

  /// Evaluates to an owned Item (allocates for strings). NOTE: has no
  /// error channel, so nested predicate positions (IfExpr conditions)
  /// degrade to unchecked EvalBool() semantics here. Every evaluation
  /// site with a Status channel uses EvalChecked() instead.
  virtual Item Eval(const RowRef& row) const = 0;

  /// Checked evaluation: like Eval(), but nested predicate positions
  /// (IfExpr conditions, AND/OR/NOT children) use checked boolean
  /// semantics — a condition that evaluates to a non-numeric value is a
  /// hard error instead of silently false. This is the row-at-a-time
  /// oracle the bytecode tier must match, and the per-lane fallback it
  /// runs for nodes it cannot type statically.
  virtual Status EvalChecked(const RowRef& row, Item* out) const {
    *out = Eval(row);
    return Status::OK();
  }

  /// Boolean evaluation fast path; default falls back to Eval().
  /// NOTE: silently treats non-numeric results as false. Remains only for
  /// callers that opted out of checked semantics; every predicate context
  /// in the engine (Filter, IfExpr conditions, the bytecode kernels) goes
  /// through EvalBoolChecked().
  virtual bool EvalBool(const RowRef& row) const {
    Item v = Eval(row);
    return v.is_i64() ? v.i64() != 0 : (v.is_f64() && v.f64() != 0);
  }

  /// Checked boolean evaluation: like EvalBool(), but a predicate that
  /// evaluates to a non-numeric value (a string column used as a filter)
  /// is a hard error instead of silently false.
  virtual Status EvalBoolChecked(const RowRef& row, bool* out) const {
    Item v;
    MODULARIS_RETURN_NOT_OK(EvalChecked(row, &v));
    if (v.is_i64()) {
      *out = v.i64() != 0;
      return Status::OK();
    }
    if (v.is_f64()) {
      *out = v.f64() != 0;
      return Status::OK();
    }
    return Status::InvalidArgument("predicate " + ToString() +
                                   " evaluated to a non-numeric value");
  }

  /// Static batch result type of this node over rows of `schema`. kItem
  /// means the node (or a child) cannot be statically typed and the
  /// bytecode tier runs EvalChecked() per lane for it.
  virtual BatchTag BatchType(const Schema& schema) const {
    (void)schema;
    return BatchTag::kItem;
  }

  /// Bytecode emission hooks (core/expr_bc.h). BcEmitValue appends
  /// instructions computing this node over the lanes of sel register
  /// `sel` and returns the value register holding the result, or -1 when
  /// the node cannot be compiled (the compiler then emits a per-lane
  /// EvalChecked fallback instruction and bumps the expr.bc_fallback.value
  /// counter). BcEmitFilter appends instructions narrowing sel register
  /// `sel` to the rows satisfying this predicate and returns false when
  /// the node has no native filter form (the compiler derives one from
  /// the value form). Composite predicates narrow child by child, which
  /// preserves the row path's short-circuit semantics: a row never
  /// reaches a child that per-row evaluation would have skipped. Emission
  /// must be side-effect free on the tree: programs are immutable after
  /// compile and shareable across workers like the tree itself.
  virtual int BcEmitValue(BcCompiler& c, int sel) const;
  virtual bool BcEmitFilter(BcCompiler& c, int sel) const;

  /// Non-allocating scalar view fast path; returns false if this node
  /// cannot produce a borrowed view (then use Eval()).
  virtual bool TryEvalView(const RowRef& row, ScalarView* out) const {
    (void)row;
    (void)out;
    return false;
  }

  /// Appends every column index referenced by this subtree (for pruning).
  virtual void CollectColumns(std::vector<int>* cols) const { (void)cols; }

  /// If this node is a bare column reference, its index; otherwise -1.
  /// Lets operators compile direct-offset fast paths (the JIT analog).
  virtual int AsColumnIndex() const { return -1; }

  // -- Structural introspection (planner rewrites) --------------------------
  // The rewrite passes split conjunctions, remap column indices across
  // projection pruning and join-side swaps, and fold constant subtrees.
  // Nodes expose their shape through these hooks; a node that does not
  // override RebuildWithChildren() is simply not rewritable and passes
  // keep the original tree (bailing out of the rewrite, never failing).

  /// Structural kind for planner dispatch.
  virtual ExprKind kind() const { return ExprKind::kOther; }

  /// Number of expression-valued children.
  virtual size_t NumExprChildren() const { return 0; }

  /// Child `i` (0 <= i < NumExprChildren()); nullptr out of range.
  virtual std::shared_ptr<const Expr> ExprChild(size_t i) const {
    (void)i;
    return nullptr;
  }

  /// Rebuilds this node over new children (exactly NumExprChildren() of
  /// them, same order as ExprChild). Returns nullptr when the node cannot
  /// be rebuilt — callers must then keep the original subtree.
  virtual std::shared_ptr<const Expr> RebuildWithChildren(
      std::vector<std::shared_ptr<const Expr>> children) const {
    (void)children;
    return nullptr;
  }

  /// If this node is a literal, stores its value and returns true.
  virtual bool AsLiteral(Item* out) const {
    (void)out;
    return false;
  }

  /// If this node is a comparison, stores its operator and returns true.
  virtual bool AsCompare(CmpOp* op) const {
    (void)op;
    return false;
  }

  /// For IN-list nodes, the number of list values (the cardinality input
  /// to the planner's selectivity model); 0 for everything else.
  virtual size_t InListSize() const { return 0; }

  virtual std::string ToString() const = 0;
};

using ExprPtr = std::shared_ptr<const Expr>;

/// Aggregate function kinds supported by Reduce / ReduceByKey. AVG is
/// expanded by the frontend into SUM + COUNT plus a final Map division.
enum class AggKind { kSum, kCount, kMin, kMax };

/// One aggregate column: `kind` applied to `input` (null input = COUNT(*)),
/// materialized under `name` with type `out_type`.
struct AggSpec {
  AggKind kind = AggKind::kSum;
  ExprPtr input;
  std::string name;
  AtomType out_type = AtomType::kFloat64;
};

const char* AggKindName(AggKind kind);

// -- Builder helpers --------------------------------------------------------
// Terse constructors used throughout plan builders and tests:
//   ex::Gt(ex::Col(3), ex::Lit(int64_t{10}))

namespace ex {

/// Reference to column `index` of the input row.
ExprPtr Col(int index);
/// Integer / float / string / date literals.
ExprPtr Lit(int64_t v);
ExprPtr Lit(double v);
ExprPtr Lit(std::string v);
/// Date literal from "YYYY-MM-DD" (aborts on malformed constant).
ExprPtr DateLit(std::string_view ymd);

ExprPtr Cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Eq(ExprPtr lhs, ExprPtr rhs);
ExprPtr Ne(ExprPtr lhs, ExprPtr rhs);
ExprPtr Lt(ExprPtr lhs, ExprPtr rhs);
ExprPtr Le(ExprPtr lhs, ExprPtr rhs);
ExprPtr Gt(ExprPtr lhs, ExprPtr rhs);
ExprPtr Ge(ExprPtr lhs, ExprPtr rhs);

ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Add(ExprPtr lhs, ExprPtr rhs);
ExprPtr Sub(ExprPtr lhs, ExprPtr rhs);
ExprPtr Mul(ExprPtr lhs, ExprPtr rhs);
ExprPtr Div(ExprPtr lhs, ExprPtr rhs);

ExprPtr And(std::vector<ExprPtr> children);
ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr And(ExprPtr a, ExprPtr b, ExprPtr c);
ExprPtr Or(std::vector<ExprPtr> children);
ExprPtr Or(ExprPtr a, ExprPtr b);
ExprPtr Not(ExprPtr inner);

/// SQL LIKE with '%' and '_' wildcards.
ExprPtr Like(ExprPtr input, std::string pattern);
/// Membership in a set of string literals.
ExprPtr InStr(ExprPtr input, std::vector<std::string> values);
/// Membership in a set of integer literals.
ExprPtr InInt(ExprPtr input, std::vector<int64_t> values);
/// lo <= input <= hi (numeric).
ExprPtr Between(ExprPtr input, ExprPtr lo, ExprPtr hi);
/// cond ? then : otherwise.
ExprPtr If(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr);

}  // namespace ex

}  // namespace modularis

#endif  // MODULARIS_CORE_EXPR_H_
