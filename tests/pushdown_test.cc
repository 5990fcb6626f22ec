#include <gtest/gtest.h>

#include "common/logging.h"
#include "kv/keys.h"
#include "sql/pushdown.h"
#include "sql/row.h"
#include "sql/sql_node.h"
#include "tenant/controller.h"

namespace veloce::sql {
namespace {

// ---------------------------------------------------------------------------
// Spec codec + evaluator
// ---------------------------------------------------------------------------

TEST(PushdownSpecTest, RoundTrip) {
  PushdownSpec spec;
  spec.filters.push_back({2, PushdownOp::kGt, Datum::Int(10)});
  spec.filters.push_back({3, PushdownOp::kEq, Datum::String("x")});
  spec.projection = {2, 4};
  auto decoded = *PushdownSpec::Decode(spec.Encode());
  ASSERT_EQ(decoded.filters.size(), 2u);
  EXPECT_EQ(decoded.filters[0].column_id, 2u);
  EXPECT_EQ(decoded.filters[0].op, PushdownOp::kGt);
  EXPECT_EQ(decoded.filters[0].value.int_value(), 10);
  EXPECT_EQ(decoded.projection, (std::vector<uint32_t>{2, 4}));
}

TEST(PushdownSpecTest, DecodeGarbageFails) {
  EXPECT_FALSE(PushdownSpec::Decode("\xff\xff\xff garbage").ok());
}

TEST(PushdownSpecTest, AggregationFragmentRoundTrip) {
  PushdownSpec spec;
  spec.filters.push_back({4, PushdownOp::kLe, Datum::Int(19980902)});
  spec.group_by = {2, 3};
  PushdownAggregate count;
  count.func = AggFunc::kCount;
  count.input = std::make_unique<PushdownExpr>();
  count.input->kind = PushdownExpr::Kind::kStar;
  spec.aggregates.push_back(std::move(count));
  // SUM(extprice * (1 - discount)): an arithmetic tree over two columns.
  PushdownAggregate sum;
  sum.func = AggFunc::kSum;
  sum.input = std::make_unique<PushdownExpr>();
  sum.input->kind = PushdownExpr::Kind::kBinary;
  sum.input->op = BinOp::kMul;
  sum.input->left = std::make_unique<PushdownExpr>();
  sum.input->left->kind = PushdownExpr::Kind::kColumn;
  sum.input->left->column_id = 5;
  sum.input->right = std::make_unique<PushdownExpr>();
  sum.input->right->kind = PushdownExpr::Kind::kBinary;
  sum.input->right->op = BinOp::kSub;
  sum.input->right->left = std::make_unique<PushdownExpr>();
  sum.input->right->left->kind = PushdownExpr::Kind::kLiteral;
  sum.input->right->left->literal = Datum::Double(1.0);
  sum.input->right->right = std::make_unique<PushdownExpr>();
  sum.input->right->right->kind = PushdownExpr::Kind::kColumn;
  sum.input->right->right->column_id = 6;
  spec.aggregates.push_back(std::move(sum));

  auto decoded = *PushdownSpec::Decode(spec.Encode());
  EXPECT_TRUE(decoded.has_aggregation());
  EXPECT_EQ(decoded.group_by, (std::vector<uint32_t>{2, 3}));
  ASSERT_EQ(decoded.aggregates.size(), 2u);
  EXPECT_EQ(decoded.aggregates[0].func, AggFunc::kCount);
  EXPECT_EQ(decoded.aggregates[0].input->kind, PushdownExpr::Kind::kStar);
  EXPECT_EQ(decoded.aggregates[1].func, AggFunc::kSum);
  const PushdownExpr& in = *decoded.aggregates[1].input;
  ASSERT_EQ(in.kind, PushdownExpr::Kind::kBinary);
  EXPECT_EQ(in.op, BinOp::kMul);
  EXPECT_EQ(in.left->column_id, 5u);
  EXPECT_EQ(in.right->left->literal.double_value(), 1.0);
  EXPECT_EQ(in.right->right->column_id, 6u);
  // Re-encoding the decoded spec is byte-stable.
  EXPECT_EQ(decoded.Encode(), spec.Encode());
}

TEST(PushdownSpecTest, FilterOnlyEncodingIsBackwardCompatible) {
  // Specs without an aggregation fragment keep the original frozen wire
  // shape (no trailing sections), so pre-fragment KV nodes decode them and
  // post-fragment nodes decode pre-fragment bytes.
  PushdownSpec spec;
  spec.filters.push_back({2, PushdownOp::kGt, Datum::Int(1)});
  spec.projection = {2, 3};
  std::string legacy;
  PutVarint64(&legacy, 1);        // one filter
  PutVarint32(&legacy, 2);        // column 2
  legacy.push_back(static_cast<char>(PushdownOp::kGt));
  Datum::Int(1).EncodeValue(&legacy);
  PutVarint64(&legacy, 2);        // two projected columns
  PutVarint32(&legacy, 2);
  PutVarint32(&legacy, 3);
  EXPECT_EQ(spec.Encode(), legacy);
  auto decoded = *PushdownSpec::Decode(legacy);
  EXPECT_FALSE(decoded.has_aggregation());
  EXPECT_EQ(decoded.projection, (std::vector<uint32_t>{2, 3}));
}

TEST(PushdownSpecTest, MakeFilterSpecSortsAndDedupesProjection) {
  // Needed columns arrive in expression-reference order with repeats
  // (SELECT id, a + h, b * 2 WHERE a > 0 yields a,h,b,a). The projected
  // row value must keep ascending-id order or the decoders' merge walk
  // silently drops the out-of-order columns.
  TableDescriptor desc;
  desc.id = 100;
  desc.columns = {{1, "id", TypeKind::kInt, false},
                  {2, "a", TypeKind::kInt, true},
                  {3, "b", TypeKind::kDouble, true},
                  {6, "h", TypeKind::kInt, true}};
  desc.primary.column_ids = {1};
  ScanConstraints plan;
  const std::vector<uint32_t> needed = {1, 2, 6, 3, 2};
  PushdownSpec spec = MakeFilterSpec(plan, &needed, desc);
  EXPECT_EQ(spec.projection, (std::vector<uint32_t>{2, 3, 6}));
}

TEST(PartialAggRowCodecTest, RoundTrip) {
  std::vector<Datum> groups = {Datum::String("A"), Datum::Null()};
  std::vector<AggState> states(3);
  states[0].count = 7;              // COUNT
  states[1].count = 5;              // SUM(int): wrapped int sum + mirror
  states[1].isum = int64_t{1} << 62;
  states[1].sum = 4.6e18;
  states[1].sum_is_int = true;
  states[2].count = 4;              // MIN/MAX carrier
  states[2].has_minmax = true;
  states[2].min = Datum::Double(-1.5);
  states[2].max = Datum::Double(99.25);

  std::vector<Datum> got_groups;
  std::vector<AggState> got_states;
  ASSERT_TRUE(DecodePartialAggRow(EncodePartialAggRow(groups, states),
                                  &got_groups, &got_states)
                  .ok());
  ASSERT_EQ(got_groups.size(), 2u);
  EXPECT_EQ(got_groups[0].string_value(), "A");
  EXPECT_TRUE(got_groups[1].is_null());
  ASSERT_EQ(got_states.size(), 3u);
  EXPECT_EQ(got_states[0].count, 7u);
  EXPECT_EQ(got_states[1].isum, int64_t{1} << 62);
  EXPECT_EQ(got_states[1].sum, 4.6e18);
  EXPECT_TRUE(got_states[1].sum_is_int);
  EXPECT_TRUE(got_states[2].has_minmax);
  EXPECT_EQ(got_states[2].min.double_value(), -1.5);
  EXPECT_EQ(got_states[2].max.double_value(), 99.25);
}

TEST(PartialAggRowCodecTest, TruncatedInputFails) {
  std::vector<Datum> groups = {Datum::Int(1)};
  std::vector<AggState> states(1);
  states[0].count = 3;
  const std::string full = EncodePartialAggRow(groups, states);
  std::vector<Datum> g;
  std::vector<AggState> s;
  for (size_t cut = 1; cut < full.size(); ++cut) {
    EXPECT_FALSE(DecodePartialAggRow(Slice(full.data(), cut), &g, &s).ok())
        << "cut " << cut;
  }
}

class PushdownEvalTest : public ::testing::Test {
 protected:
  PushdownEvalTest() {
    desc_.id = 100;
    desc_.name = "t";
    desc_.columns = {{1, "id", TypeKind::kInt, false},
                     {2, "v", TypeKind::kInt, true},
                     {3, "s", TypeKind::kString, true}};
    desc_.primary.column_ids = {1};
  }

  std::string RowValue(int64_t id, std::optional<int64_t> v, const std::string& s) {
    Row row = {Datum::Int(id), v ? Datum::Int(*v) : Datum::Null(), Datum::String(s)};
    return EncodeRowValue(desc_, row);
  }

  // Runs the KV-side evaluator over a one-row segment: nullopt when the
  // row is filtered out, otherwise the value shipped back for it.
  std::optional<std::string> EvalRow(const std::string& value, const std::string& spec) {
    auto out = EvaluatePushdownFragment({{"row-key", value}}, spec);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    if (!out.ok() || out->empty()) return std::nullopt;
    EXPECT_EQ(out->size(), 1u);
    EXPECT_EQ((*out)[0].key, "row-key");
    return (*out)[0].value;
  }

  TableDescriptor desc_;
};

TEST_F(PushdownEvalTest, FilterKeepsAndDrops) {
  PushdownSpec spec;
  spec.filters.push_back({2, PushdownOp::kGe, Datum::Int(5)});
  const std::string encoded = spec.Encode();
  auto keep = EvalRow(RowValue(1, 7, "a"), encoded);
  EXPECT_TRUE(keep.has_value());
  auto drop = EvalRow(RowValue(2, 3, "b"), encoded);
  EXPECT_FALSE(drop.has_value());
}

TEST_F(PushdownEvalTest, NullColumnsAreFiltered) {
  PushdownSpec spec;
  spec.filters.push_back({2, PushdownOp::kNe, Datum::Int(0)});
  auto result = EvalRow(RowValue(1, std::nullopt, "x"), spec.Encode());
  EXPECT_FALSE(result.has_value());  // NULL != 0 is unknown -> rejected
}

TEST_F(PushdownEvalTest, ProjectionTrimsValue) {
  PushdownSpec spec;
  spec.projection = {2};  // keep only column v
  const std::string full = RowValue(1, 42, std::string(500, 'x'));
  auto projected = EvalRow(full, spec.Encode());
  ASSERT_TRUE(projected.has_value());
  EXPECT_LT(projected->size(), full.size() / 4);
  // The projected value still decodes; missing columns read as NULL.
  Row row;
  const std::string key = EncodePrimaryKeyFromDatums(desc_, {Datum::Int(1)});
  ASSERT_TRUE(DecodeRow(desc_, key, *projected, &row).ok());
  EXPECT_EQ(row[1].int_value(), 42);
  EXPECT_TRUE(row[2].is_null());
}

// ---------------------------------------------------------------------------
// End-to-end through SQL
// ---------------------------------------------------------------------------

class PushdownEndToEndTest : public ::testing::Test {
 protected:
  PushdownEndToEndTest() {
    kv::KVClusterOptions opts;
    opts.num_nodes = 3;
    cluster_ = std::make_unique<kv::KVCluster>(opts);
    controller_ = std::make_unique<tenant::TenantController>(cluster_.get(), &ca_);
    service_ = std::make_unique<tenant::AuthorizedKvService>(cluster_.get(), &ca_);
    auto meta = *controller_->CreateTenant("app");
    auto cert = *controller_->IssueCert(meta.id);
    node_ = std::make_unique<SqlNode>(1, SqlNode::Options{}, cluster_->clock());
    VELOCE_CHECK_OK(node_->StartProcess());
    VELOCE_CHECK_OK(node_->StampTenant(service_.get(), cluster_.get(), cert));
    session_ = *node_->NewSession();
    VELOCE_CHECK(session_->Execute(
        "CREATE TABLE t (id INT PRIMARY KEY, grp INT, payload STRING)").ok());
    for (int i = 0; i < 100; ++i) {
      VELOCE_CHECK(session_->Execute(
          "INSERT INTO t VALUES (" + std::to_string(i) + ", " +
          std::to_string(i % 10) + ", '" + std::string(200, 'p') + "')").ok());
    }
  }

  ResultSet Exec(const std::string& sql) {
    auto result = session_->Execute(sql);
    VELOCE_CHECK(result.ok()) << sql << ": " << result.status().ToString();
    return std::move(result).value();
  }

  tenant::CertificateAuthority ca_;
  std::unique_ptr<kv::KVCluster> cluster_;
  std::unique_ptr<tenant::TenantController> controller_;
  std::unique_ptr<tenant::AuthorizedKvService> service_;
  std::unique_ptr<SqlNode> node_;
  Session* session_;
};

TEST_F(PushdownEndToEndTest, SameResultsWithAndWithoutPushdown) {
  ResultSet off = Exec("SELECT id FROM t WHERE grp = 3 ORDER BY id");
  Exec("SET kv_pushdown = on");
  ResultSet on = Exec("SELECT id FROM t WHERE grp = 3 ORDER BY id");
  ASSERT_EQ(on.rows.size(), off.rows.size());
  for (size_t i = 0; i < on.rows.size(); ++i) {
    EXPECT_EQ(on.rows[i][0].int_value(), off.rows[i][0].int_value());
  }
}

TEST_F(PushdownEndToEndTest, FilterPushdownShrinksTransfer) {
  sql::KvConnector* connector = node_->connector();
  connector->ResetFeatures();
  Exec("SELECT id FROM t WHERE grp = 3");
  const double bytes_without = connector->features().read_bytes;

  Exec("SET kv_pushdown = on");
  connector->ResetFeatures();
  ResultSet rs = Exec("SELECT id FROM t WHERE grp = 3");
  const double bytes_with = connector->features().read_bytes;

  EXPECT_EQ(rs.rows.size(), 10u);
  // 90% of rows are filtered at the KV node, and the payload column is
  // projected away: the transfer shrinks dramatically.
  EXPECT_LT(bytes_with, bytes_without / 5);
}

TEST_F(PushdownEndToEndTest, ProjectionPushdownAloneShrinksTransfer) {
  sql::KvConnector* connector = node_->connector();
  connector->ResetFeatures();
  Exec("SELECT grp FROM t");  // full scan, no filter, narrow projection
  const double bytes_without = connector->features().read_bytes;

  Exec("SET kv_pushdown = on");
  connector->ResetFeatures();
  ResultSet rs = Exec("SELECT grp FROM t");
  const double bytes_with = connector->features().read_bytes;
  EXPECT_EQ(rs.rows.size(), 100u);
  EXPECT_LT(bytes_with, bytes_without / 5);  // the 200B payload stays behind
}

TEST_F(PushdownEndToEndTest, AggregatesCorrectUnderPushdown) {
  Exec("SET kv_pushdown = on");
  ResultSet rs = Exec("SELECT grp, COUNT(*) FROM t WHERE grp >= 8 GROUP BY grp ORDER BY grp");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].int_value(), 8);
  EXPECT_EQ(rs.rows[0][1].int_value(), 10);
}

TEST_F(PushdownEndToEndTest, RangeFiltersPushDown) {
  Exec("SET kv_pushdown = on");
  ResultSet rs = Exec("SELECT COUNT(*) FROM t WHERE grp > 2 AND grp <= 5");
  EXPECT_EQ(rs.rows[0][0].int_value(), 30);
}

TEST_F(PushdownEndToEndTest, GroupByMergesAcrossRanges) {
  // Split the table so the aggregation fragment produces one partial state
  // per group per range segment; the SQL side must merge them.
  TableDescriptor desc = *node_->catalog()->GetTable("t");
  for (int split : {25, 50, 75}) {
    const std::string key = kv::AddTenantPrefix(
        node_->tenant_id(),
        EncodePrimaryKeyFromDatums(desc, {Datum::Int(split)}));
    VELOCE_CHECK_OK(cluster_->SplitRange(key));
  }
  ResultSet off = Exec(
      "SELECT grp, COUNT(*), SUM(id), MIN(id), MAX(id) FROM t "
      "GROUP BY grp ORDER BY grp");
  Exec("SET kv_pushdown = on");
  ResultSet on = Exec(
      "SELECT grp, COUNT(*), SUM(id), MIN(id), MAX(id) FROM t "
      "GROUP BY grp ORDER BY grp");
  ASSERT_EQ(on.rows.size(), off.rows.size());
  for (size_t i = 0; i < on.rows.size(); ++i) {
    for (size_t j = 0; j < on.rows[i].size(); ++j) {
      EXPECT_EQ(on.rows[i][j].Compare(off.rows[i][j]), 0)
          << "row " << i << " col " << j;
    }
  }
}

TEST_F(PushdownEndToEndTest, AggregationFragmentShrinksMarshal) {
  // With the fragment pushed, only per-group partial states cross the
  // SQL/KV boundary instead of every (wide) row.
  sql::KvConnector* connector = node_->connector();
  const char* sql = "SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp";
  (void)Exec(sql);  // warm
  uint64_t m0 = connector->marshaled_bytes();
  (void)Exec(sql);
  const uint64_t bytes_off = connector->marshaled_bytes() - m0;
  Exec("SET kv_pushdown = on");
  m0 = connector->marshaled_bytes();
  (void)Exec(sql);
  const uint64_t bytes_on = connector->marshaled_bytes() - m0;
  EXPECT_LT(bytes_on, bytes_off / 3) << bytes_on << " vs " << bytes_off;
}

TEST_F(PushdownEndToEndTest, TransactionalScansBypassPushdown) {
  // Txn scans must see their own uncommitted writes; pushdown is skipped on
  // that path and results stay correct.
  Exec("SET kv_pushdown = on");
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (1000, 3, 'new')");
  ResultSet rs = Exec("SELECT COUNT(*) FROM t WHERE grp = 3");
  EXPECT_EQ(rs.rows[0][0].int_value(), 11);
  Exec("ROLLBACK");
  rs = Exec("SELECT COUNT(*) FROM t WHERE grp = 3");
  EXPECT_EQ(rs.rows[0][0].int_value(), 10);
}

TEST_F(PushdownEndToEndTest, UpdatesUnaffectedByPushdownSetting) {
  Exec("SET kv_pushdown = on");
  ResultSet updated = Exec("UPDATE t SET payload = 'small' WHERE grp = 1");
  EXPECT_EQ(updated.rows_affected, 10u);
  ResultSet rs = Exec("SELECT COUNT(*) FROM t WHERE payload = 'small'");
  EXPECT_EQ(rs.rows[0][0].int_value(), 10);
}

}  // namespace
}  // namespace veloce::sql
