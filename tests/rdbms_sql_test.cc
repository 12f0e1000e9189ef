// End-to-end SQL tests for the embedded RDBMS: DDL, DML, scans, joins,
// aggregation, subqueries, views, prepared statements, and plan choice.
#include <gtest/gtest.h>

#include "rdbms/db.h"

namespace r3 {
namespace rdbms {
namespace {

#define ASSERT_OK(expr)                                \
  do {                                                 \
    ::r3::Status _st = (expr);                         \
    ASSERT_TRUE(_st.ok()) << _st.ToString();           \
  } while (false)

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_OK(db_->Execute(
        "CREATE TABLE dept (id INT, name CHAR(12), PRIMARY KEY (id))"));
    ASSERT_OK(db_->Execute(
        "CREATE TABLE emp (id INT, dept_id INT, name VARCHAR, salary DECIMAL, "
        "hired DATE, PRIMARY KEY (id))"));
    ASSERT_OK(db_->Execute("CREATE INDEX emp_dept ON emp (dept_id)"));
    ASSERT_OK(db_->Execute(
        "INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')"));
    ASSERT_OK(db_->Execute(
        "INSERT INTO emp VALUES "
        "(10, 1, 'ada', 120.50, DATE '1995-01-15'), "
        "(11, 1, 'grace', 140.00, DATE '1996-06-01'), "
        "(12, 2, 'edsger', 90.25, DATE '1994-12-31'), "
        "(13, 2, 'alan', 95.75, DATE '1995-07-07'), "
        "(14, NULL, 'lonely', 50.00, DATE '1996-01-01')"));
    ASSERT_OK(db_->Execute("ANALYZE"));
  }

  QueryResult Q(const std::string& sql) {
    auto res = db_->Query(sql);
    EXPECT_TRUE(res.ok()) << sql << " -> " << res.status().ToString();
    return res.ok() ? std::move(res).value() : QueryResult{};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(SqlTest, SimpleSelect) {
  QueryResult r = Q("SELECT name FROM dept WHERE id = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].string_value(), "sales");
}

TEST_F(SqlTest, SelectStar) {
  QueryResult r = Q("SELECT * FROM dept ORDER BY id");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].size(), 2u);
  EXPECT_EQ(r.rows[0][1].string_value(), "eng");
}

TEST_F(SqlTest, WherePredicates) {
  EXPECT_EQ(Q("SELECT id FROM emp WHERE salary > 100").rows.size(), 2u);
  EXPECT_EQ(Q("SELECT id FROM emp WHERE salary BETWEEN 90 AND 100").rows.size(),
            2u);
  EXPECT_EQ(Q("SELECT id FROM emp WHERE name LIKE 'a%'").rows.size(), 2u);
  EXPECT_EQ(Q("SELECT id FROM emp WHERE dept_id IS NULL").rows.size(), 1u);
  EXPECT_EQ(Q("SELECT id FROM emp WHERE dept_id IS NOT NULL").rows.size(), 4u);
  EXPECT_EQ(Q("SELECT id FROM emp WHERE id IN (10, 12, 99)").rows.size(), 2u);
  EXPECT_EQ(
      Q("SELECT id FROM emp WHERE hired >= DATE '1995-01-01' AND "
        "hired < DATE '1996-01-01'")
          .rows.size(),
      2u);
}

TEST_F(SqlTest, NullComparisonsRejectRows) {
  // dept_id = NULL is UNKNOWN, never true.
  EXPECT_EQ(Q("SELECT id FROM emp WHERE dept_id = NULL").rows.size(), 0u);
  EXPECT_EQ(Q("SELECT id FROM emp WHERE dept_id <> 1").rows.size(), 2u);
}

TEST_F(SqlTest, Arithmetic) {
  QueryResult r = Q("SELECT salary * 2 + 1 FROM emp WHERE id = 10");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 242.0);
}

TEST_F(SqlTest, JoinImplicit) {
  QueryResult r = Q(
      "SELECT e.name, d.name FROM emp e, dept d "
      "WHERE e.dept_id = d.id ORDER BY e.name");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].string_value(), "ada");
  EXPECT_EQ(r.rows[0][1].string_value(), "eng");
}

TEST_F(SqlTest, JoinExplicit) {
  QueryResult r = Q(
      "SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.id "
      "WHERE d.name = 'sales' ORDER BY e.name");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].string_value(), "alan");
}

TEST_F(SqlTest, LeftOuterJoin) {
  QueryResult r = Q(
      "SELECT d.name, e.name FROM dept d LEFT JOIN emp e ON e.dept_id = d.id "
      "ORDER BY d.name, e.name");
  // eng x2, sales x2, empty x1 (null-extended).
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].string_value(), "empty");
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(SqlTest, GroupByAggregates) {
  QueryResult r = Q(
      "SELECT dept_id, COUNT(*), SUM(salary), AVG(salary), MIN(name), "
      "MAX(salary) FROM emp WHERE dept_id IS NOT NULL "
      "GROUP BY dept_id ORDER BY dept_id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsDouble(), 260.5);
  EXPECT_DOUBLE_EQ(r.rows[0][3].AsDouble(), 130.25);
  EXPECT_EQ(r.rows[0][4].string_value(), "ada");
  EXPECT_DOUBLE_EQ(r.rows[0][5].AsDouble(), 140.0);
}

TEST_F(SqlTest, AggregateWithoutGroupBy) {
  QueryResult r = Q("SELECT COUNT(*), SUM(salary) FROM emp");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
  EXPECT_NEAR(r.rows[0][1].AsDouble(), 496.5, 1e-9);
}

TEST_F(SqlTest, AggregateOverEmptyInput) {
  QueryResult r = Q("SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 1000");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(SqlTest, Having) {
  QueryResult r = Q(
      "SELECT dept_id, COUNT(*) FROM emp WHERE dept_id IS NOT NULL "
      "GROUP BY dept_id HAVING SUM(salary) > 200 ORDER BY dept_id");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
}

TEST_F(SqlTest, GroupByExpression) {
  QueryResult r = Q(
      "SELECT YEAR(hired), COUNT(*) FROM emp GROUP BY YEAR(hired) "
      "ORDER BY YEAR(hired)");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1994);
  EXPECT_EQ(r.rows[1][0].AsInt(), 1995);
  EXPECT_EQ(r.rows[1][1].AsInt(), 2);
}

TEST_F(SqlTest, CaseExpression) {
  QueryResult r = Q(
      "SELECT SUM(CASE WHEN salary > 100 THEN 1 ELSE 0 END) FROM emp");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
}

TEST_F(SqlTest, DistinctAndLimit) {
  EXPECT_EQ(Q("SELECT DISTINCT dept_id FROM emp WHERE dept_id IS NOT NULL")
                .rows.size(),
            2u);
  EXPECT_EQ(Q("SELECT id FROM emp ORDER BY id LIMIT 2").rows.size(), 2u);
}

TEST_F(SqlTest, CountDistinct) {
  QueryResult r = Q("SELECT COUNT(DISTINCT dept_id) FROM emp");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
}

TEST_F(SqlTest, ScalarSubquery) {
  QueryResult r = Q(
      "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].string_value(), "grace");
}

TEST_F(SqlTest, CorrelatedScalarSubquery) {
  // Best-paid employee of each department.
  QueryResult r = Q(
      "SELECT e.name FROM emp e WHERE e.dept_id IS NOT NULL AND e.salary = "
      "(SELECT MAX(e2.salary) FROM emp e2 WHERE e2.dept_id = e.dept_id) "
      "ORDER BY e.name");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].string_value(), "alan");
  EXPECT_EQ(r.rows[1][0].string_value(), "grace");
}

TEST_F(SqlTest, ExistsSubquery) {
  QueryResult r = Q(
      "SELECT d.name FROM dept d WHERE EXISTS "
      "(SELECT * FROM emp e WHERE e.dept_id = d.id) ORDER BY d.name");
  ASSERT_EQ(r.rows.size(), 2u);
  QueryResult r2 = Q(
      "SELECT d.name FROM dept d WHERE NOT EXISTS "
      "(SELECT * FROM emp e WHERE e.dept_id = d.id)");
  ASSERT_EQ(r2.rows.size(), 1u);
  EXPECT_EQ(r2.rows[0][0].string_value(), "empty");
}

TEST_F(SqlTest, InSubquery) {
  QueryResult r = Q(
      "SELECT name FROM dept WHERE id IN (SELECT dept_id FROM emp "
      "WHERE salary > 100) ORDER BY name");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].string_value(), "eng");
}

TEST_F(SqlTest, View) {
  ASSERT_OK(db_->Execute(
      "CREATE VIEW emp_dept AS SELECT e.id eid, e.name ename, e.salary sal, "
      "d.name dname FROM emp e, dept d WHERE e.dept_id = d.id"));
  QueryResult r = Q(
      "SELECT ename, dname FROM emp_dept WHERE sal > 100 ORDER BY ename");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].string_value(), "ada");
  EXPECT_EQ(r.rows[0][1].string_value(), "eng");
}

TEST_F(SqlTest, PreparedStatementWithParams) {
  auto stmt = db_->Prepare("SELECT name FROM emp WHERE salary > ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto r1 = db_->ExecutePrepared(stmt.value(), {Value::Dbl(100.0)});
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().rows.size(), 2u);
  auto r2 = db_->ExecutePrepared(stmt.value(), {Value::Dbl(0.0)});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().rows.size(), 5u);
  // Same text returns the same plan (cursor caching substrate).
  auto stmt2 = db_->Prepare("SELECT name FROM emp WHERE salary > ?");
  ASSERT_TRUE(stmt2.ok());
  EXPECT_EQ(stmt.value(), stmt2.value());
}

TEST_F(SqlTest, DeleteAndUpdate) {
  int64_t affected = 0;
  ASSERT_OK(db_->Execute("DELETE FROM emp WHERE dept_id = 2", {}, nullptr,
                         &affected));
  EXPECT_EQ(affected, 2);
  EXPECT_EQ(Q("SELECT id FROM emp").rows.size(), 3u);

  ASSERT_OK(db_->Execute("UPDATE emp SET salary = salary + 10 WHERE id = 10",
                         {}, nullptr, &affected));
  EXPECT_EQ(affected, 1);
  QueryResult r = Q("SELECT salary FROM emp WHERE id = 10");
  EXPECT_NEAR(r.rows[0][0].AsDouble(), 130.5, 1e-9);
}

// A heap record removed behind a live index entry means index and heap
// disagree. DML through the index assist reports it, as an index-driven
// SELECT does, instead of skipping the entry and touching 0 rows.
TEST_F(SqlTest, HeapMissBehindIndexEntryIsAnError) {
  auto table = db_->catalog()->GetTable("emp");
  ASSERT_OK(table.status());
  TableInfo* emp = table.value();
  Rid ada_rid;
  {
    std::unique_ptr<RecordIterator> it = emp->storage->NewIterator();
    Rid rid;
    std::string rec;
    Row row;
    while (true) {
      auto more = it->Next(&rid, &rec);
      ASSERT_OK(more.status());
      ASSERT_TRUE(more.value()) << "ada (id 10) not found";
      ASSERT_OK(DeserializeRow(emp->schema, rec, &row));
      if (row[0].AsInt() == 10) break;
    }
    ada_rid = rid;
  }
  ASSERT_OK(emp->storage->Delete(ada_rid));  // the index entries stay

  int64_t affected = 0;
  EXPECT_FALSE(
      db_->Execute("DELETE FROM emp WHERE id = 10", {}, nullptr, &affected)
          .ok());
  EXPECT_FALSE(db_->Execute("UPDATE emp SET salary = 1 WHERE dept_id = 1", {},
                            nullptr, &affected)
                   .ok());
  EXPECT_EQ(affected, 0);
  EXPECT_FALSE(db_->Query("SELECT name FROM emp WHERE id = 10").ok());
  // Entries whose rows are intact still work.
  ASSERT_OK(
      db_->Execute("DELETE FROM emp WHERE id = 12", {}, nullptr, &affected));
  EXPECT_EQ(affected, 1);
}

// A NULL index bound matches no key: `col = NULL` and `col < NULL` are
// never true, whether the predicate runs as a filter or as index bounds.
TEST_F(SqlTest, NullIndexBoundMatchesNothing) {
  for (const char* sql : {"SELECT id FROM emp WHERE dept_id = ?",
                          "SELECT id FROM emp WHERE id < ?"}) {
    auto plan = db_->Explain(sql);
    ASSERT_OK(plan.status());
    EXPECT_NE(plan.value().find("IndexScan"), std::string::npos)
        << plan.value();
    auto stmt = db_->Prepare(sql);
    ASSERT_OK(stmt.status());
    auto res = db_->ExecutePrepared(stmt.value(), {Value::Null()});
    ASSERT_OK(res.status());
    EXPECT_EQ(res.value().rows.size(), 0u) << sql;
  }
  int64_t affected = 0;
  ASSERT_OK(db_->Execute("DELETE FROM emp WHERE dept_id = ?", {Value::Null()},
                         nullptr, &affected));
  EXPECT_EQ(affected, 0);
  EXPECT_EQ(Q("SELECT id FROM emp").rows.size(), 5u);
}

TEST_F(SqlTest, UniqueConstraint) {
  Status st = db_->Execute("INSERT INTO dept VALUES (1, 'dup')");
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation) << st.ToString();
  // Table unchanged.
  EXPECT_EQ(Q("SELECT id FROM dept").rows.size(), 3u);
}

TEST_F(SqlTest, NotNullConstraint) {
  ASSERT_OK(db_->Execute(
      "CREATE TABLE strict (a INT NOT NULL, b INT)"));
  Status st = db_->Execute("INSERT INTO strict VALUES (NULL, 1)");
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation);
}

TEST_F(SqlTest, ExplainShowsIndexForSelectivePredicate) {
  auto plan = db_->Explain("SELECT name FROM emp WHERE id = 11");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("IndexScan"), std::string::npos) << plan.value();
}

TEST_F(SqlTest, ExplainParameterizedIsBlindIndex) {
  // With a literal covering everything, the optimizer picks a scan...
  auto lit = db_->Explain("SELECT name FROM emp WHERE id > 0");
  ASSERT_TRUE(lit.ok());
  EXPECT_NE(lit.value().find("SeqScan"), std::string::npos) << lit.value();
  // ...with a parameter it cannot know and blindly takes the index.
  auto par = db_->Explain("SELECT name FROM emp WHERE id > ?");
  ASSERT_TRUE(par.ok());
  EXPECT_NE(par.value().find("IndexScan"), std::string::npos) << par.value();
}

TEST_F(SqlTest, OrderByDesc) {
  QueryResult r = Q("SELECT id FROM emp ORDER BY salary DESC LIMIT 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 11);
}

TEST_F(SqlTest, ThreeWayJoin) {
  ASSERT_OK(db_->Execute("CREATE TABLE loc (dept_id INT, city VARCHAR)"));
  ASSERT_OK(db_->Execute(
      "INSERT INTO loc VALUES (1, 'zurich'), (2, 'london')"));
  ASSERT_OK(db_->Execute("ANALYZE loc"));
  QueryResult r = Q(
      "SELECT e.name, d.name, l.city FROM emp e, dept d, loc l "
      "WHERE e.dept_id = d.id AND d.id = l.dept_id AND e.salary > 100 "
      "ORDER BY e.name");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][2].string_value(), "zurich");
}

}  // namespace
}  // namespace rdbms
}  // namespace r3
