#include "rdbms/expr/expr.h"

#include "common/str_util.h"
#include "rdbms/sql/ast.h"

namespace r3 {
namespace rdbms {

Expr::Expr(ExprKind k) : kind(k) {}

Expr::~Expr() = default;

namespace {

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
    case ArithOp::kNeg:
      return "-";
  }
  return "?";
}

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCountStar:
      return "COUNT(*)";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

}  // namespace

ExprPtr Expr::Clone() const {
  auto out = std::make_unique<Expr>(kind);
  out->result_type = result_type;
  out->literal = literal;
  out->table_qualifier = table_qualifier;
  out->column_name = column_name;
  out->column_index = column_index;
  out->binder_index = binder_index;
  out->param_index = param_index;
  out->slot = slot;
  out->arith_op = arith_op;
  out->cmp_op = cmp_op;
  out->logic_op = logic_op;
  out->negated = negated;
  out->func_name = func_name;
  out->cast_target = cast_target;
  out->agg_func = agg_func;
  out->agg_distinct = agg_distinct;
  out->case_has_else = case_has_else;
  // Subquery plans are not cloneable; keep the AST so a re-bind can plan it.
  if (subquery_ast != nullptr) {
    out->subquery_ast = subquery_ast->Clone();
  }
  for (const ExprPtr& c : children) {
    out->children.push_back(c->Clone());
  }
  return out;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.type() == DataType::kString ? "'" + literal.ToString() + "'"
                                                 : literal.ToString();
    case ExprKind::kColumnRef:
      // Bound refs print canonically by position so structurally equal
      // expressions stringify identically (the binder relies on this for
      // GROUP BY / ORDER BY matching), at the binder's position even after
      // the optimizer compacts the row.
      if (binder_index != kUnresolvedColumn) {
        return str::Format("col#%zu", binder_index);
      }
      if (column_index != kUnresolvedColumn) {
        return str::Format("col#%zu", column_index);
      }
      return table_qualifier.empty() ? column_name
                                     : table_qualifier + "." + column_name;
    case ExprKind::kOuterRef:
      return str::Format("outer#%zu", column_index);
    case ExprKind::kParam:
      return str::Format("?%zu", param_index);
    case ExprKind::kSlotRef:
      return str::Format("#%zu", column_index);
    case ExprKind::kArith:
      if (arith_op == ArithOp::kNeg) {
        return std::string("(-") + children[0]->ToString() + ")";
      }
      return "(" + children[0]->ToString() + " " + ArithOpName(arith_op) + " " +
             children[1]->ToString() + ")";
    case ExprKind::kCompare:
      return "(" + children[0]->ToString() + " " + CmpOpName(cmp_op) + " " +
             children[1]->ToString() + ")";
    case ExprKind::kLogic: {
      const char* op = logic_op == LogicOp::kAnd ? " AND " : " OR ";
      return "(" + children[0]->ToString() + op + children[1]->ToString() + ")";
    }
    case ExprKind::kNot:
      return "NOT (" + children[0]->ToString() + ")";
    case ExprKind::kIsNull:
      return children[0]->ToString() + (negated ? " IS NOT NULL" : " IS NULL");
    case ExprKind::kLike:
      return children[0]->ToString() + (negated ? " NOT LIKE " : " LIKE ") +
             children[1]->ToString();
    case ExprKind::kInList: {
      std::string out = children[0]->ToString() + (negated ? " NOT IN (" : " IN (");
      for (size_t i = 1; i < children.size(); ++i) {
        if (i != 1) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kBetween:
      return children[0]->ToString() + (negated ? " NOT BETWEEN " : " BETWEEN ") +
             children[1]->ToString() + " AND " + children[2]->ToString();
    case ExprKind::kCase: {
      std::string out = "CASE";
      size_t pairs = (children.size() - (case_has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        out += " WHEN " + children[2 * i]->ToString() + " THEN " +
               children[2 * i + 1]->ToString();
      }
      if (case_has_else) out += " ELSE " + children.back()->ToString();
      return out + " END";
    }
    case ExprKind::kFunc: {
      std::string out = func_name + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i != 0) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kCast:
      return "CAST(" + children[0]->ToString() + " AS " +
             DataTypeName(cast_target) + ")";
    case ExprKind::kAggCall:
      if (agg_func == AggFunc::kCountStar) return "COUNT(*)";
      return std::string(AggFuncName(agg_func)) + "(" +
             (agg_distinct ? "DISTINCT " : "") + children[0]->ToString() + ")";
    case ExprKind::kAggRef:
      return str::Format("agg#%zu", slot);
    case ExprKind::kScalarSubquery:
      return "(<subquery>)";
    case ExprKind::kExistsSubquery:
      return negated ? "NOT EXISTS(<subquery>)" : "EXISTS(<subquery>)";
    case ExprKind::kInSubquery:
      return children[0]->ToString() + (negated ? " NOT IN " : " IN ") +
             "(<subquery>)";
  }
  return "?";
}

ExprPtr MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>(ExprKind::kLiteral);
  e->result_type = v.type();
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeColumnRef(std::string qualifier, std::string name) {
  auto e = std::make_unique<Expr>(ExprKind::kColumnRef);
  e->table_qualifier = std::move(qualifier);
  e->column_name = std::move(name);
  return e;
}

ExprPtr MakeParam(size_t index) {
  auto e = std::make_unique<Expr>(ExprKind::kParam);
  e->param_index = index;
  return e;
}

ExprPtr MakeSlotRef(size_t index, DataType type) {
  auto e = std::make_unique<Expr>(ExprKind::kSlotRef);
  e->column_index = index;
  e->result_type = type;
  return e;
}

ExprPtr MakeArith(ArithOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_unique<Expr>(ExprKind::kArith);
  e->arith_op = op;
  e->children.push_back(std::move(l));
  e->children.push_back(std::move(r));
  return e;
}

ExprPtr MakeNeg(ExprPtr v) {
  auto e = std::make_unique<Expr>(ExprKind::kArith);
  e->arith_op = ArithOp::kNeg;
  e->children.push_back(std::move(v));
  return e;
}

ExprPtr MakeCompare(CmpOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_unique<Expr>(ExprKind::kCompare);
  e->cmp_op = op;
  e->children.push_back(std::move(l));
  e->children.push_back(std::move(r));
  return e;
}

ExprPtr MakeLogic(LogicOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_unique<Expr>(ExprKind::kLogic);
  e->logic_op = op;
  e->children.push_back(std::move(l));
  e->children.push_back(std::move(r));
  return e;
}

ExprPtr MakeNot(ExprPtr v) {
  auto e = std::make_unique<Expr>(ExprKind::kNot);
  e->children.push_back(std::move(v));
  return e;
}

ExprPtr MakeIsNull(ExprPtr v, bool negated) {
  auto e = std::make_unique<Expr>(ExprKind::kIsNull);
  e->negated = negated;
  e->children.push_back(std::move(v));
  return e;
}

ExprPtr MakeLike(ExprPtr v, ExprPtr pattern, bool negated) {
  auto e = std::make_unique<Expr>(ExprKind::kLike);
  e->negated = negated;
  e->children.push_back(std::move(v));
  e->children.push_back(std::move(pattern));
  return e;
}

ExprPtr MakeBetween(ExprPtr v, ExprPtr lo, ExprPtr hi, bool negated) {
  auto e = std::make_unique<Expr>(ExprKind::kBetween);
  e->negated = negated;
  e->children.push_back(std::move(v));
  e->children.push_back(std::move(lo));
  e->children.push_back(std::move(hi));
  return e;
}

ExprPtr MakeFunc(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>(ExprKind::kFunc);
  e->func_name = str::ToUpper(name);
  e->children = std::move(args);
  return e;
}

ExprPtr MakeCast(ExprPtr v, DataType target) {
  auto e = std::make_unique<Expr>(ExprKind::kCast);
  e->cast_target = target;
  e->result_type = target;
  e->children.push_back(std::move(v));
  return e;
}

ExprPtr MakeAggCall(AggFunc f, ExprPtr arg, bool distinct) {
  auto e = std::make_unique<Expr>(ExprKind::kAggCall);
  e->agg_func = f;
  e->agg_distinct = distinct;
  if (arg != nullptr) e->children.push_back(std::move(arg));
  return e;
}

void SplitConjuncts(ExprPtr e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kLogic && e->logic_op == LogicOp::kAnd) {
    ExprPtr l = std::move(e->children[0]);
    ExprPtr r = std::move(e->children[1]);
    SplitConjuncts(std::move(l), out);
    SplitConjuncts(std::move(r), out);
    return;
  }
  out->push_back(std::move(e));
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  ExprPtr out;
  for (ExprPtr& c : conjuncts) {
    if (out == nullptr) {
      out = std::move(c);
    } else {
      out = MakeLogic(LogicOp::kAnd, std::move(out), std::move(c));
    }
  }
  return out;
}

bool ExprContains(const Expr& e, bool (*pred)(const Expr&)) {
  if (pred(e)) return true;
  for (const ExprPtr& c : e.children) {
    if (c != nullptr && ExprContains(*c, pred)) return true;
  }
  return false;
}

bool ExprHasColumnRefs(const Expr& e) {
  return ExprContains(e, [](const Expr& x) {
    return x.kind == ExprKind::kColumnRef || x.kind == ExprKind::kOuterRef ||
           x.kind == ExprKind::kSlotRef;
  });
}

bool ExprHasAggregates(const Expr& e) {
  return ExprContains(
      e, [](const Expr& x) { return x.kind == ExprKind::kAggCall; });
}

bool ExprHasParams(const Expr& e) {
  return ExprContains(e,
                      [](const Expr& x) { return x.kind == ExprKind::kParam; });
}

void VisitExpr(Expr* e, const std::function<void(Expr*)>& fn) {
  if (e == nullptr) return;
  fn(e);
  for (ExprPtr& c : e->children) {
    VisitExpr(c.get(), fn);
  }
}

}  // namespace rdbms
}  // namespace r3
