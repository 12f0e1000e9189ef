#ifndef R3DB_RDBMS_EXPR_EXPR_H_
#define R3DB_RDBMS_EXPR_EXPR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "rdbms/value.h"

namespace r3 {
namespace rdbms {

struct SelectStmt;  // sql/ast.h

/// Node kinds of the (unified parse-time and bound) expression tree.
///
/// The parser produces kColumnRef nodes with textual names; the binder
/// resolves them to wide-row positions (or kOuterRef for correlated refs),
/// assigns result types, replaces aggregate calls in post-aggregation
/// expressions with kAggRef slots, and attaches subquery plans.
enum class ExprKind : uint8_t {
  kLiteral,
  kColumnRef,  ///< column of the current query's wide row
  kOuterRef,   ///< column of the enclosing query's wide row (correlation)
  kParam,      ///< `?` placeholder, bound at execution time
  kSlotRef,    ///< direct position in the operator's input row (post-agg)
  kArith,
  kCompare,
  kLogic,
  kNot,
  kIsNull,   ///< `negated` => IS NOT NULL
  kLike,     ///< `negated` => NOT LIKE; children = [value, pattern]
  kInList,   ///< children = [target, item...]; `negated` => NOT IN
  kBetween,  ///< children = [target, lo, hi]; `negated` => NOT BETWEEN
  kCase,     ///< children = [when, then]... (+ else if case_has_else)
  kFunc,     ///< by name: YEAR, MONTH, SUBSTR, UPPER, LOWER, ABS, LENGTH, MOD
  kCast,
  kAggCall,  ///< SUM/AVG/... over children[0] (none for COUNT(*))
  kAggRef,   ///< aggregation output slot
  kScalarSubquery,
  kExistsSubquery,  ///< `negated` => NOT EXISTS
  kInSubquery,      ///< children = [target]; `negated` => NOT IN
};

enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv, kNeg };
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicOp : uint8_t { kAnd, kOr };
enum class AggFunc : uint8_t { kCountStar, kCount, kSum, kAvg, kMin, kMax };

inline constexpr size_t kUnresolvedColumn = static_cast<size_t>(-1);
inline constexpr size_t kNoSubquery = static_cast<size_t>(-1);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// One expression node; see ExprKind for field usage.
struct Expr {
  // Constructor and destructor are out-of-line: SelectStmt is incomplete
  // here and unique_ptr<SelectStmt> must not be instantiated in the header.
  explicit Expr(ExprKind k);
  ~Expr();
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  ExprKind kind;
  DataType result_type = DataType::kInt64;  ///< set by the binder

  Value literal;

  std::string table_qualifier;  ///< kColumnRef (optional)
  std::string column_name;      ///< kColumnRef
  size_t column_index = kUnresolvedColumn;  ///< kColumnRef/kOuterRef/kSlotRef
  /// kColumnRef whose `column_index` the optimizer moved to a compact row
  /// position: the binder's wide-row position, which ToString keeps
  /// rendering so plan text does not depend on the row layout.
  size_t binder_index = kUnresolvedColumn;

  size_t param_index = 0;  ///< kParam
  size_t slot = 0;         ///< kAggRef

  ArithOp arith_op = ArithOp::kAdd;
  CmpOp cmp_op = CmpOp::kEq;
  LogicOp logic_op = LogicOp::kAnd;
  bool negated = false;

  std::string func_name;                   ///< kFunc
  DataType cast_target = DataType::kInt64; ///< kCast

  AggFunc agg_func = AggFunc::kCountStar;  ///< kAggCall
  bool agg_distinct = false;

  bool case_has_else = false;

  size_t subquery_index = kNoSubquery;     ///< bound subquery plan slot
  std::unique_ptr<SelectStmt> subquery_ast;

  std::vector<ExprPtr> children;

  /// Deep copy (drops any bound subquery_index; clones the AST).
  ExprPtr Clone() const;

  /// Debug rendering, e.g. "(L_QUANTITY < ?0)".
  std::string ToString() const;
};

// ---- Construction helpers (used by the parser, binder, and query builders).

ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumnRef(std::string qualifier, std::string name);
ExprPtr MakeParam(size_t index);
ExprPtr MakeSlotRef(size_t index, DataType type);
ExprPtr MakeArith(ArithOp op, ExprPtr l, ExprPtr r);
ExprPtr MakeNeg(ExprPtr e);
ExprPtr MakeCompare(CmpOp op, ExprPtr l, ExprPtr r);
ExprPtr MakeLogic(LogicOp op, ExprPtr l, ExprPtr r);
ExprPtr MakeNot(ExprPtr e);
ExprPtr MakeIsNull(ExprPtr e, bool negated);
ExprPtr MakeLike(ExprPtr v, ExprPtr pattern, bool negated);
ExprPtr MakeBetween(ExprPtr v, ExprPtr lo, ExprPtr hi, bool negated);
ExprPtr MakeFunc(std::string name, std::vector<ExprPtr> args);
ExprPtr MakeCast(ExprPtr e, DataType target);
ExprPtr MakeAggCall(AggFunc f, ExprPtr arg, bool distinct);

/// Splits an AND-tree into conjuncts (moves out of `e`).
void SplitConjuncts(ExprPtr e, std::vector<ExprPtr>* out);

/// Re-joins conjuncts into a single AND-tree (empty -> nullptr).
ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts);

/// True if the (sub)tree contains a node satisfying `pred`.
bool ExprContains(const Expr& e, bool (*pred)(const Expr&));

/// True if the tree references any kColumnRef/kOuterRef/kSlotRef.
bool ExprHasColumnRefs(const Expr& e);

/// True if the tree contains a kAggCall.
bool ExprHasAggregates(const Expr& e);

/// True if the tree contains a kParam.
bool ExprHasParams(const Expr& e);

/// Applies `fn` to every node (pre-order), allowing mutation.
void VisitExpr(Expr* e, const std::function<void(Expr*)>& fn);

}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_EXPR_EXPR_H_
