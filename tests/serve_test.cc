// Serving-subsystem tests: the hardened JSON parser, wire framing over real
// sockets (partial reads, truncation, oversized frames, mid-request
// disconnects), tenants/quotas/access levels, admission control (quota
// retry-after, deadlines), connection-capacity backpressure, the publication
// catalog (counts bit-identical to the scan oracles, answer LRU, versioned
// republication), a full client/server round trip over loopback, fault
// injection at serve.request, and an 8-client concurrency hammer whose
// results must be byte-identical to a serial reference (TSan-clean; listed
// in the sanitizers workflow's tsan filter).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/context.h"
#include "engine/anonymization_module.h"
#include "hierarchy/hierarchy_builder.h"
#include "query/query_evaluator.h"
#include "query/workload_generator.h"
#include "obs/metric_names.h"
#include "obs/metrics_registry.h"
#include "obs/slow_query_log.h"
#include "obs/trace_tail.h"
#include "robust/fault_injection.h"
#include "serve/admission.h"
#include "serve/catalog.h"
#include "serve/client.h"
#include "serve/http_metrics.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

// ---------------------------------------------------------------------------
// ServeJsonTest — the untrusted-input JSON parser.

TEST(ServeJsonTest, ParsesScalarsObjectsAndArrays) {
  ASSERT_OK_AND_ASSIGN(
      JsonValue doc,
      JsonValue::Parse(R"({"a":1.5,"b":"x","c":[true,false,null],"d":{}})"));
  ASSERT_TRUE(doc.is_object());
  ASSERT_OK_AND_ASSIGN(double a, doc.GetNumber("a"));
  EXPECT_EQ(a, 1.5);
  ASSERT_OK_AND_ASSIGN(std::string b, doc.GetString("b"));
  EXPECT_EQ(b, "x");
  const JsonValue* c = doc.Find("c");
  ASSERT_NE(c, nullptr);
  ASSERT_TRUE(c->is_array());
  ASSERT_EQ(c->elements().size(), 3u);
  EXPECT_TRUE(c->elements()[0].bool_value());
  EXPECT_TRUE(c->elements()[2].is_null());
  const JsonValue* d = doc.Find("d");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->is_object());
}

TEST(ServeJsonTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",           "{",       "}",         "{\"a\":}",   "[1,]",
      "{\"a\" 1}",  "tru",     "1.2.3",     "\"unterminated",
      "{\"a\":1}x", "[1] []",  "\"\x01\"",  "nan",        "+1",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(JsonValue::Parse(text).ok()) << "accepted: " << text;
  }
  // Depth bomb: 100 nested arrays against a limit of 64.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(ServeJsonTest, DecodesEscapesAndSurrogatePairs) {
  ASSERT_OK_AND_ASSIGN(
      JsonValue doc,
      JsonValue::Parse(R"({"s":"a\n\t\"\\é😀"})"));
  ASSERT_OK_AND_ASSIGN(std::string s, doc.GetString("s"));
  EXPECT_EQ(s, "a\n\t\"\\\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(ServeJsonTest, TypedGettersEnforceTypes) {
  ASSERT_OK_AND_ASSIGN(JsonValue doc,
                       JsonValue::Parse(R"({"n":7,"s":"x","neg":-3})"));
  ASSERT_OK_AND_ASSIGN(uint64_t n, doc.GetUint("n"));
  EXPECT_EQ(n, 7u);
  // Missing key: plain getter fails, *Or variant substitutes.
  EXPECT_FALSE(doc.GetString("absent").ok());
  ASSERT_OK_AND_ASSIGN(std::string fallback, doc.GetStringOr("absent", "d"));
  EXPECT_EQ(fallback, "d");
  // Type mismatch always fails, even for the *Or variants.
  EXPECT_FALSE(doc.GetNumber("s").ok());
  EXPECT_FALSE(doc.GetNumberOr("s", 1).ok());
  EXPECT_FALSE(doc.GetUint("neg").ok());
}

// ---------------------------------------------------------------------------
// ServeProtocolTest — framing over real sockets and request/response codecs.

// A connected AF_UNIX stream pair; [0] plays the client, [1] the server.
class ServeProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    for (int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }
  void CloseClient() {
    ::close(fds_[0]);
    fds_[0] = -1;
  }
  int fds_[2] = {-1, -1};
};

TEST_F(ServeProtocolTest, FrameRoundTrip) {
  ASSERT_OK(WriteFrame(fds_[0], "hello frame"));
  std::string payload;
  bool clean_eof = true;
  ASSERT_OK(ReadFrame(fds_[1], kServeMaxFrameBytes, &payload, &clean_eof));
  EXPECT_FALSE(clean_eof);
  EXPECT_EQ(payload, "hello frame");
}

TEST_F(ServeProtocolTest, CleanEofBetweenFrames) {
  CloseClient();
  std::string payload;
  bool clean_eof = false;
  ASSERT_OK(ReadFrame(fds_[1], kServeMaxFrameBytes, &payload, &clean_eof));
  EXPECT_TRUE(clean_eof);
}

TEST_F(ServeProtocolTest, TruncatedHeaderIsIOError) {
  const char partial[2] = {0, 0};
  ASSERT_EQ(::send(fds_[0], partial, sizeof(partial), 0),
            static_cast<ssize_t>(sizeof(partial)));
  CloseClient();
  std::string payload;
  bool clean_eof = false;
  Status status = ReadFrame(fds_[1], kServeMaxFrameBytes, &payload, &clean_eof);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

TEST_F(ServeProtocolTest, TruncatedPayloadIsIOError) {
  // Header promises 100 bytes; only 10 arrive before disconnect.
  const char header[4] = {0, 0, 0, 100};
  ASSERT_EQ(::send(fds_[0], header, 4, 0), 4);
  ASSERT_EQ(::send(fds_[0], "0123456789", 10, 0), 10);
  CloseClient();
  std::string payload;
  bool clean_eof = false;
  Status status = ReadFrame(fds_[1], kServeMaxFrameBytes, &payload, &clean_eof);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

TEST_F(ServeProtocolTest, OversizedAndZeroLengthFramesRejected) {
  const char huge[4] = {0x7F, 0, 0, 0};  // claims 0x7F000000 bytes
  ASSERT_EQ(::send(fds_[0], huge, 4, 0), 4);
  std::string payload;
  bool clean_eof = false;
  Status status = ReadFrame(fds_[1], 1 << 20, &payload, &clean_eof);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  const char zero[4] = {0, 0, 0, 0};
  ASSERT_EQ(::send(fds_[0], zero, 4, 0), 4);
  status = ReadFrame(fds_[1], 1 << 20, &payload, &clean_eof);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ServeProtocolTest, RequestCodecRoundTrip) {
  ServeRequest request;
  request.op = ServeOp::kCount;
  request.id = 42;
  request.dataset = "demo";
  request.query = "Age:20..39;items:i1 i2";
  request.access = "anonymized";
  ASSERT_OK_AND_ASSIGN(ServeRequest decoded,
                       ParseServeRequest(SerializeServeRequest(request)));
  EXPECT_EQ(decoded.op, ServeOp::kCount);
  EXPECT_EQ(decoded.id, 42u);
  EXPECT_EQ(decoded.dataset, "demo");
  EXPECT_EQ(decoded.query, "Age:20..39;items:i1 i2");
  EXPECT_EQ(decoded.access, "anonymized");
}

TEST_F(ServeProtocolTest, RequestParsingRejectsGarbage) {
  EXPECT_FALSE(ParseServeRequest("not json at all").ok());
  EXPECT_FALSE(ParseServeRequest("[1,2,3]").ok());
  EXPECT_FALSE(ParseServeRequest(R"({"op":"frobnicate"})").ok());
  EXPECT_FALSE(ParseServeRequest(R"({"op":"count","dataset":"d"})").ok());
  EXPECT_FALSE(
      ParseServeRequest(R"({"op":"count","dataset":"","query":"q"})").ok());
  EXPECT_FALSE(ParseServeRequest(R"({"op":"hello","version":"one"})").ok());
  EXPECT_FALSE(ParseServeRequest(R"({"op":"count","id":"seven"})").ok());
}

TEST_F(ServeProtocolTest, ErrorResponseCarriesCodeAndRetryAfter) {
  Status rejected =
      Status::ResourceExhausted("queue full").WithRetryAfter(0.25);
  std::string payload = ErrorResponsePayload(9, rejected);
  Result<ServeResponse> response = ParseServeResponse(payload);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(response.status().message(), "queue full");
  EXPECT_TRUE(response.status().has_retry_after());
  EXPECT_NEAR(response.status().retry_after_seconds(), 0.25, 1e-9);
}

// ---------------------------------------------------------------------------
// ServeSessionTest — tenants, access levels, token buckets.

TEST(ServeSessionTest, ParsesTenantSpecs) {
  ASSERT_OK_AND_ASSIGN(TenantConfig full,
                       ParseTenantSpec("ops:secret:direct:12.5:40"));
  EXPECT_EQ(full.name, "ops");
  EXPECT_EQ(full.token, "secret");
  EXPECT_EQ(full.access, AccessLevel::kDirect);
  EXPECT_EQ(full.quota_qps, 12.5);
  EXPECT_EQ(full.quota_burst, 40);

  ASSERT_OK_AND_ASSIGN(TenantConfig minimal,
                       ParseTenantSpec("demo:tok:anonymized"));
  EXPECT_EQ(minimal.access, AccessLevel::kAnonymized);
  EXPECT_EQ(minimal.quota_qps, 0);

  EXPECT_FALSE(ParseTenantSpec("justname").ok());
  EXPECT_FALSE(ParseTenantSpec("a:b:nope").ok());
  EXPECT_FALSE(ParseTenantSpec(":tok:direct").ok());
  EXPECT_FALSE(ParseTenantSpec("a:b:direct:abc").ok());
}

TEST(ServeSessionTest, TokenBucketThrottlesAndRefills) {
  TokenBucket bucket(/*rate=*/50, /*burst=*/2);
  ASSERT_OK(bucket.TryAcquire());
  ASSERT_OK(bucket.TryAcquire());
  Status rejected = bucket.TryAcquire();
  ASSERT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(rejected.has_retry_after());
  EXPECT_GT(rejected.retry_after_seconds(), 0);
  // At 50 tokens/s one token refills within 20ms; give it a wide margin.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_OK(bucket.TryAcquire());

  TokenBucket unlimited(0, 0);
  for (int i = 0; i < 1000; ++i) ASSERT_OK(unlimited.TryAcquire());
}

TEST(ServeSessionTest, RegistryAuthenticatesAndRejects) {
  TenantRegistry registry;
  TenantConfig admin;
  admin.name = "admin";
  admin.token = "s3cret";
  admin.access = AccessLevel::kDirect;
  ASSERT_OK(registry.AddTenant(admin));

  EXPECT_EQ(registry.AddTenant(admin).code(), StatusCode::kAlreadyExists);
  TenantConfig clash;
  clash.name = "other";
  clash.token = "s3cret";
  EXPECT_EQ(registry.AddTenant(clash).code(), StatusCode::kAlreadyExists);

  ASSERT_OK_AND_ASSIGN(std::shared_ptr<ClientSession> session,
                       registry.Authenticate("s3cret"));
  EXPECT_EQ(session->tenant(), "admin");
  EXPECT_TRUE(session->Allows(AccessLevel::kDirect));
  EXPECT_TRUE(session->Allows(AccessLevel::kAnonymized));

  Result<std::shared_ptr<ClientSession>> bad = registry.Authenticate("wrong");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kPermissionDenied);

  // Sessions are distinct per hello; direct is denied to analyst tenants.
  TenantConfig analyst;
  analyst.name = "analyst";
  analyst.token = "tok2";
  ASSERT_OK(registry.AddTenant(analyst));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<ClientSession> s2,
                       registry.Authenticate("tok2"));
  EXPECT_NE(session->id(), s2->id());
  EXPECT_FALSE(s2->Allows(AccessLevel::kDirect));
}

// ---------------------------------------------------------------------------
// ServeAdmissionTest — quota and deadline gates around an inline count.

std::shared_ptr<ClientSession> UnlimitedSession() {
  TenantConfig config;
  config.name = "t";
  return std::make_shared<ClientSession>(
      1, config, std::make_shared<TokenBucket>(0, 0));
}

TEST(ServeAdmissionTest, RunsTheCallbackAndReturnsItsValue) {
  AdmissionController admission(nullptr);
  auto session = UnlimitedSession();
  ASSERT_OK_AND_ASSIGN(
      double count,
      admission.RunCount(*session, "test", [] { return Result<double>(41.5); }));
  EXPECT_EQ(count, 41.5);
  // Callback errors propagate unchanged.
  Result<double> failed = admission.RunCount(*session, "test", [] {
    return Result<double>(Status::NotFound("no such dataset"));
  });
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kNotFound);
}

TEST(ServeAdmissionTest, QuotaRejectionCarriesRetryAfter) {
  AdmissionController admission(nullptr);
  TenantConfig config;
  config.name = "throttled";
  config.quota_qps = 0.001;  // effectively one query per session
  config.quota_burst = 1;
  auto session = std::make_shared<ClientSession>(
      1, config, std::make_shared<TokenBucket>(config.quota_qps,
                                               config.quota_burst));
  ASSERT_OK(admission
                .RunCount(*session, "q1", [] { return Result<double>(1.0); })
                .status());
  Result<double> rejected =
      admission.RunCount(*session, "q2", [] { return Result<double>(2.0); });
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(rejected.status().has_retry_after());
}

TEST(ServeAdmissionTest, DeadlineMapsToDeadlineExceeded) {
  AdmissionOptions options;
  options.default_deadline_seconds = 0.05;
  AdmissionController admission(nullptr, options);
  auto session = UnlimitedSession();
  Result<double> timed_out =
      admission.RunCount(*session, "slow", []() -> Result<double> {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        return 1.0;
      });
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// ServeCatalogTest — publication and counts vs the scan oracles.

ReleaseOptions SmallReleaseOptions() {
  ReleaseOptions options;
  options.config.mode = AnonMode::kRt;
  options.config.relational_algorithm = "Cluster";
  options.config.transaction_algorithm = "Apriori";
  options.config.params.k = 3;
  options.config.params.m = 2;
  return options;
}

TEST(ServeCatalogTest, CountsMatchTheScanOracles) {
  // The release is built from a dataset generated with a fixed seed; the
  // oracle pipeline regenerates the identical dataset and runs the identical
  // (deterministic) anonymization, then answers with the reference scans.
  Dataset dataset = testing::SmallRtDataset(250, 11);
  DatasetCatalog catalog;
  ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<const PublishedRelease> release,
      catalog.Publish("demo", testing::SmallRtDataset(250, 11),
                      SmallReleaseOptions()));

  ASSERT_OK_AND_ASSIGN(std::vector<Hierarchy> hierarchies,
                       BuildAllColumnHierarchies(dataset));
  ASSERT_OK_AND_ASSIGN(RelationalContext rel,
                       RelationalContext::Create(dataset, hierarchies));
  ASSERT_OK_AND_ASSIGN(Hierarchy item_h, BuildItemHierarchy(dataset));
  ASSERT_OK_AND_ASSIGN(TransactionContext tx,
                       TransactionContext::Create(dataset, &item_h));
  EngineInputs inputs;
  inputs.dataset = &dataset;
  inputs.relational = &rel;
  inputs.transaction = &tx;
  ASSERT_OK_AND_ASSIGN(RunResult run,
                       RunAnonymization(inputs, SmallReleaseOptions().config));
  ASSERT_OK_AND_ASSIGN(QueryEvaluator oracle,
                       QueryEvaluator::Create(dataset, &rel));

  WorkloadGenOptions wopts;
  wopts.num_queries = 20;
  wopts.seed = 3;
  ASSERT_OK_AND_ASSIGN(Workload workload, GenerateWorkload(dataset, wopts));
  for (const CountQuery& query : workload.queries()) {
    ASSERT_OK_AND_ASSIGN(double direct,
                         release->Count(query, AccessLevel::kDirect));
    ASSERT_OK_AND_ASSIGN(double exact, oracle.ExactCount(query));
    EXPECT_EQ(direct, exact) << query.ToString();

    ASSERT_OK_AND_ASSIGN(double anonymized,
                         release->Count(query, AccessLevel::kAnonymized));
    ASSERT_OK_AND_ASSIGN(
        double estimated,
        oracle.EstimatedCount(query, run.relational ? &*run.relational : nullptr,
                              run.transaction ? &*run.transaction : nullptr));
    EXPECT_EQ(anonymized, estimated) << query.ToString();
  }
}

TEST(ServeCatalogTest, AnswerCacheServesRepeats) {
  DatasetCatalog catalog;
  ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<const PublishedRelease> release,
      catalog.Publish("demo", testing::SmallRtDataset(150, 4),
                      SmallReleaseOptions()));
  ASSERT_OK_AND_ASSIGN(
      PublishedRelease::CountAnswer first,
      release->CountLine("Age:25..45", AccessLevel::kAnonymized));
  EXPECT_FALSE(first.cached);
  ASSERT_OK_AND_ASSIGN(
      PublishedRelease::CountAnswer second,
      release->CountLine("Age:25..45", AccessLevel::kAnonymized));
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(first.count, second.count);
  // Same query at a different access level is a distinct cache entry.
  ASSERT_OK_AND_ASSIGN(PublishedRelease::CountAnswer direct,
                       release->CountLine("Age:25..45", AccessLevel::kDirect));
  EXPECT_FALSE(direct.cached);
  // Malformed query lines are errors, not crashes (and are never cached).
  EXPECT_FALSE(
      release->CountLine("Nope::::", AccessLevel::kAnonymized).ok());
}

TEST(ServeCatalogTest, RepublishBumpsVersionAndOldHandleSurvives) {
  DatasetCatalog catalog;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const PublishedRelease> v1,
                       catalog.Publish("demo", testing::SmallRtDataset(120, 1),
                                       SmallReleaseOptions()));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const PublishedRelease> v2,
                       catalog.Publish("demo", testing::SmallRtDataset(160, 2),
                                       SmallReleaseOptions()));
  EXPECT_GT(v2->version(), v1->version());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const PublishedRelease> current,
                       catalog.Get("demo"));
  EXPECT_EQ(current->version(), v2->version());
  EXPECT_EQ(catalog.size(), 1u);
  // The replaced release still answers for handlers that hold it.
  EXPECT_OK(v1->CountLine("Age:30..40", AccessLevel::kAnonymized).status());

  EXPECT_EQ(catalog.Get("nope").status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// ServeServerTest — the full stack over loopback.

// A bare TCP connection speaking raw frames — for protocol-violation tests
// that ServeClient (which always behaves) cannot express.
class RawConnection {
 public:
  ~RawConnection() { Close(); }
  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }
  int fd() const { return fd_; }
  // Sends a payload frame and returns the response payload parsed as a
  // ServeResponse (error responses surface as the carried Status).
  Result<ServeResponse> RoundTrip(const std::string& payload) {
    SECRETA_RETURN_IF_ERROR(WriteFrame(fd_, payload));
    std::string response;
    bool clean_eof = false;
    SECRETA_RETURN_IF_ERROR(
        ReadFrame(fd_, kServeMaxFrameBytes, &response, &clean_eof));
    if (clean_eof) return Status::IOError("server closed the connection");
    return ParseServeResponse(response);
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(catalog_.Publish("demo", testing::SmallRtDataset(200, 7),
                               SmallReleaseOptions())
                  .status());
    TenantConfig admin;
    admin.name = "admin";
    admin.token = "admin-token";
    admin.access = AccessLevel::kDirect;
    ASSERT_OK(tenants_.AddTenant(admin));
    TenantConfig analyst;
    analyst.name = "analyst";
    analyst.token = "analyst-token";
    analyst.access = AccessLevel::kAnonymized;
    ASSERT_OK(tenants_.AddTenant(analyst));
  }

  void StartServer(ServerOptions options = {}) {
    options.port = 0;
    server_ = std::make_unique<QueryServer>(&catalog_, &tenants_, nullptr,
                                            options);
    ASSERT_OK(server_->Start());
  }

  DatasetCatalog catalog_;
  TenantRegistry tenants_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(ServeServerTest, HandshakeQueriesAndGoodbye) {
  StartServer();
  ServeClient client;
  ASSERT_OK(client.Connect("127.0.0.1", server_->port()));
  ASSERT_OK(client.Hello("analyst-token", "test"));
  ASSERT_OK(client.Ping());

  ASSERT_OK_AND_ASSIGN(std::vector<ServeDatasetInfo> datasets,
                       client.ListDatasets());
  ASSERT_EQ(datasets.size(), 1u);
  EXPECT_EQ(datasets[0].name, "demo");
  EXPECT_EQ(datasets[0].records, 200u);

  ASSERT_OK_AND_ASSIGN(ServeClient::CountResult count,
                       client.Count("demo", "Age:25..40"));
  EXPECT_GE(count.count, 0);

  ASSERT_OK_AND_ASSIGN(std::string metrics, client.Metrics());
  EXPECT_NE(metrics.find("serve.requests"), std::string::npos);

  ASSERT_OK(client.Bye());
  EXPECT_FALSE(client.connected());
}

TEST_F(ServeServerTest, RejectsBadTokenBadVersionAndMissingHandshake) {
  StartServer();
  {
    ServeClient client;
    ASSERT_OK(client.Connect("127.0.0.1", server_->port()));
    Status denied = client.Hello("wrong-token");
    EXPECT_EQ(denied.code(), StatusCode::kPermissionDenied);
  }
  {
    // A count before hello is refused but the connection survives, so a
    // follow-up hello on the same socket succeeds.
    ServeClient client;
    ASSERT_OK(client.Connect("127.0.0.1", server_->port()));
    Result<ServeClient::CountResult> early = client.Count("demo", "Age:20..30");
    ASSERT_FALSE(early.ok());
    EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_OK(client.Hello("analyst-token"));
  }
  {
    // Wrong protocol version, via a raw frame (ServeClient always sends the
    // right one).
    RawConnection raw;
    ASSERT_TRUE(raw.Connect(server_->port()));
    ServeRequest hello;
    hello.op = ServeOp::kHello;
    hello.id = 1;
    hello.version = kServeProtocolVersion + 7;
    hello.token = "analyst-token";
    Result<ServeResponse> refused = raw.RoundTrip(SerializeServeRequest(hello));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  }
  {
    // A second hello on an established session is a protocol violation.
    ServeClient client;
    ASSERT_OK(client.Connect("127.0.0.1", server_->port()));
    ASSERT_OK(client.Hello("analyst-token"));
    Status again = client.Hello("analyst-token");
    EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  }
}

TEST_F(ServeServerTest, DirectAccessDeniedToAnalysts) {
  StartServer();
  ServeClient client;
  ASSERT_OK(client.Connect("127.0.0.1", server_->port()));
  ASSERT_OK(client.Hello("analyst-token"));
  Result<ServeClient::CountResult> denied =
      client.Count("demo", "Age:25..40", "direct");
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);

  // The admin tenant gets both levels, and direct >= anonymized cardinality
  // sanity: both answer without error.
  ServeClient admin;
  ASSERT_OK(admin.Connect("127.0.0.1", server_->port()));
  ASSERT_OK(admin.Hello("admin-token"));
  ASSERT_OK(admin.Count("demo", "Age:25..40", "direct").status());
  ASSERT_OK(admin.Count("demo", "Age:25..40", "anonymized").status());
}

TEST_F(ServeServerTest, UnknownDatasetAndBadQueryAreTypedErrors) {
  StartServer();
  ServeClient client;
  ASSERT_OK(client.Connect("127.0.0.1", server_->port()));
  ASSERT_OK(client.Hello("analyst-token"));
  Result<ServeClient::CountResult> missing =
      client.Count("nope", "Age:20..30");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  Result<ServeClient::CountResult> bad = client.Count("demo", "::garbage::");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // The connection survived both application errors.
  EXPECT_OK(client.Ping());
}

TEST_F(ServeServerTest, QuotaExhaustionReturnsRetryAfter) {
  TenantConfig throttled;
  throttled.name = "throttled";
  throttled.token = "throttled-token";
  throttled.quota_qps = 0.001;
  throttled.quota_burst = 2;
  ASSERT_OK(tenants_.AddTenant(throttled));
  StartServer();

  ServeClient client;
  ASSERT_OK(client.Connect("127.0.0.1", server_->port()));
  ASSERT_OK(client.Hello("throttled-token"));
  ASSERT_OK(client.Count("demo", "Age:25..40").status());
  ASSERT_OK(client.Count("demo", "Age:30..50").status());
  Result<ServeClient::CountResult> rejected =
      client.Count("demo", "Age:35..60");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(rejected.status().has_retry_after());
  // Rejected queries do not kill the session.
  EXPECT_OK(client.Ping());
}

TEST_F(ServeServerTest, ConnectionBeyondCapacityGetsRetryAfter) {
  ServerOptions options;
  options.max_connections = 2;
  StartServer(options);
  // Fill every connection slot; a completed hello proves each one was
  // accepted and holds a handler.
  std::vector<std::unique_ptr<ServeClient>> held;
  for (size_t i = 0; i < options.max_connections; ++i) {
    held.push_back(std::make_unique<ServeClient>());
    ASSERT_OK(held.back()->Connect("127.0.0.1", server_->port()));
    ASSERT_OK(held.back()->Hello("analyst-token"));
  }
  Counter* rejected_busy =
      MetricsRegistry::Global().counter(metric_names::kServeRejectedBusy);
  const uint64_t rejected_before = rejected_busy->value();

  // One connection too many is refused with a typed frame, unprompted: the
  // server writes it right after accept and hangs up.
  RawConnection extra;
  ASSERT_TRUE(extra.Connect(server_->port()));
  std::string payload;
  bool clean_eof = false;
  ASSERT_OK(ReadFrame(extra.fd(), kServeMaxFrameBytes, &payload, &clean_eof));
  ASSERT_FALSE(clean_eof);
  Result<ServeResponse> refused = ParseServeResponse(payload);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(refused.status().has_retry_after())
      << refused.status().ToString();
  EXPECT_GT(rejected_busy->value(), rejected_before);

  // The held connections are unaffected.
  for (auto& client : held) {
    EXPECT_OK(client->Count("demo", "Age:25..40").status());
  }
}

TEST_F(ServeServerTest, GarbageJsonGetsTypedErrorAndConnectionSurvives) {
  StartServer();
  RawConnection raw;
  ASSERT_TRUE(raw.Connect(server_->port()));
  // A well-framed payload of JSON garbage must yield a typed error frame —
  // never a hangup or a crash — and the connection must stay usable.
  Result<ServeResponse> garbage = raw.RoundTrip("this is not json {{{");
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), StatusCode::kInvalidArgument);

  Result<ServeResponse> wrong_shape = raw.RoundTrip("[1,2,3]");
  ASSERT_FALSE(wrong_shape.ok());
  EXPECT_EQ(wrong_shape.status().code(), StatusCode::kInvalidArgument);

  // The same connection can still complete a handshake afterwards.
  ServeRequest hello;
  hello.op = ServeOp::kHello;
  hello.id = 5;
  hello.version = kServeProtocolVersion;
  hello.token = "analyst-token";
  ASSERT_OK_AND_ASSIGN(ServeResponse welcomed,
                       raw.RoundTrip(SerializeServeRequest(hello)));
  EXPECT_TRUE(welcomed.ok);
  EXPECT_EQ(welcomed.id, 5u);
}

TEST_F(ServeServerTest, MidRequestDisconnectLeavesServerHealthy) {
  StartServer();
  {
    // Send a frame header promising 100 bytes, deliver 10, and vanish.
    RawConnection raw;
    ASSERT_TRUE(raw.Connect(server_->port()));
    const char header[4] = {0, 0, 0, 100};
    ASSERT_EQ(::send(raw.fd(), header, 4, 0), 4);
    ASSERT_EQ(::send(raw.fd(), "0123456789", 10, 0), 10);
    raw.Close();
  }
  {
    // An oversized frame header gets an error frame and a server-side close.
    RawConnection raw;
    ASSERT_TRUE(raw.Connect(server_->port()));
    const char huge[4] = {0x7F, 0, 0, 0};
    ASSERT_EQ(::send(raw.fd(), huge, 4, 0), 4);
  }
  // The server shrugged both off: a fresh client works end to end.
  ServeClient client;
  ASSERT_OK(client.Connect("127.0.0.1", server_->port()));
  ASSERT_OK(client.Hello("analyst-token"));
  ASSERT_OK(client.Count("demo", "Age:25..40").status());
  ASSERT_OK(client.Bye());
}

TEST_F(ServeServerTest, StopUnblocksIdleClientsAndIsIdempotent) {
  StartServer();
  ServeClient client;
  ASSERT_OK(client.Connect("127.0.0.1", server_->port()));
  ASSERT_OK(client.Hello("analyst-token"));
  // Stop with a live idle connection: must return promptly, not hang on the
  // blocked read.
  server_->Stop();
  server_->Stop();  // idempotent
  EXPECT_FALSE(server_->running());
}

TEST_F(ServeServerTest, FaultInjectionAtServeRequest) {
  if (!FaultInjector::CompiledIn()) {
    GTEST_SKIP() << "fault sites compiled out (SECRETA_FAULTS=OFF)";
  }
  StartServer();
  ASSERT_OK(FaultInjector::Global().Configure("serve.request:fail:@1"));
  ServeClient client;
  ASSERT_OK(client.Connect("127.0.0.1", server_->port()));
  ASSERT_OK(client.Hello("analyst-token"));
  Result<ServeClient::CountResult> poisoned =
      client.Count("demo", "Age:25..40");
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kResourceExhausted);
  // Only the first hit fires; the retry succeeds and the server kept going.
  EXPECT_OK(client.Count("demo", "Age:25..40").status());
  FaultInjector::Global().Clear();
}

// ---------------------------------------------------------------------------
// Serving telemetry — the tail ring, the slow-query log, admin.traces, and
// the embedded Prometheus endpoint.

TEST_F(ServeServerTest, AdminTracesVisibleToDirectTenantsOnly) {
  TraceTail::Global().Clear();
  ServerOptions options;
  options.slow_query_threshold_seconds = 0;  // pin every COUNT
  StartServer(options);

  ServeClient analyst;
  ASSERT_OK(analyst.Connect("127.0.0.1", server_->port()));
  ASSERT_OK(analyst.Hello("analyst-token"));
  ASSERT_OK(analyst.Count("demo", "Age:25..40").status());
  Result<std::vector<RequestTrace>> denied = analyst.AdminTraces();
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);

  ServeClient admin;
  ASSERT_OK(admin.Connect("127.0.0.1", server_->port()));
  ASSERT_OK(admin.Hello("admin-token"));
  ASSERT_OK_AND_ASSIGN(std::vector<RequestTrace> traces, admin.AdminTraces());
  ASSERT_FALSE(traces.empty());
  bool found = false;
  for (const RequestTrace& trace : traces) {
    if (trace.tenant != "analyst") continue;
    found = true;
    EXPECT_GT(trace.trace_id, 0u);
    EXPECT_EQ(trace.dataset, "demo");
    // The predicate shape is wildcarded — raw query values never leave the
    // server through the trace ring.
    EXPECT_EQ(trace.query_shape, "Age:*");
    EXPECT_EQ(trace.outcome, "ok");
    EXPECT_TRUE(trace.slow);
    EXPECT_FALSE(trace.error);
    EXPECT_GE(trace.total_seconds, 0.0);
    EXPECT_FALSE(trace.kernel_tier.empty());
  }
  EXPECT_TRUE(found);
}

TEST_F(ServeServerTest, ErroredRequestsArePinnedIntoTheTail) {
  TraceTail::Global().Clear();
  StartServer();  // default threshold: fast requests are NOT slow

  ServeClient client;
  ASSERT_OK(client.Connect("127.0.0.1", server_->port()));
  ASSERT_OK(client.Hello("analyst-token"));
  // A healthy fast COUNT is not retained; a NotFound is.
  ASSERT_OK(client.Count("demo", "Age:25..40").status());
  ASSERT_EQ(client.Count("nope", "Age:25..40").status().code(),
            StatusCode::kNotFound);

  std::vector<RequestTrace> pinned = TraceTail::Global().Snapshot();
  ASSERT_EQ(pinned.size(), 1u);
  EXPECT_EQ(pinned[0].dataset, "nope");
  EXPECT_EQ(pinned[0].outcome, "NotFound");
  EXPECT_TRUE(pinned[0].error);
}

TEST_F(ServeServerTest, SlowQueryLogSharesTraceIdsWithTailRing) {
  TraceTail::Global().Clear();
  std::string path = ::testing::TempDir() + "/secreta_serve_slow.jsonl";
  ASSERT_OK(SlowQueryLog::Global().Open(path));
  ServerOptions options;
  options.slow_query_threshold_seconds = 0;
  StartServer(options);

  ServeClient client;
  ASSERT_OK(client.Connect("127.0.0.1", server_->port()));
  ASSERT_OK(client.Hello("analyst-token"));
  ASSERT_OK(client.Count("demo", "Age:25..40").status());
  ASSERT_OK(client.Count("demo", "Age:25..40").status());  // answer-cache hit
  server_->Stop();
  SlowQueryLog::Global().Close();

  std::map<uint64_t, RequestTrace> pinned_by_id;
  for (const RequestTrace& trace : TraceTail::Global().Snapshot()) {
    pinned_by_id[trace.trace_id] = trace;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t records = 0;
  bool saw_cached = false;
  while (std::getline(in, line)) {
    ASSERT_OK_AND_ASSIGN(JsonValue row, JsonValue::Parse(line));
    ASSERT_OK_AND_ASSIGN(uint64_t trace_id, row.GetUint("trace_id"));
    // The log line and the retained trace share one id — the operator can
    // pivot from either artifact to the other.
    auto it = pinned_by_id.find(trace_id);
    ASSERT_NE(it, pinned_by_id.end()) << "trace_id " << trace_id;
    ASSERT_OK_AND_ASSIGN(std::string tenant, row.GetString("tenant"));
    EXPECT_EQ(tenant, it->second.tenant);
    ASSERT_OK_AND_ASSIGN(std::string dataset, row.GetString("dataset"));
    EXPECT_EQ(dataset, it->second.dataset);
    ASSERT_OK_AND_ASSIGN(bool cached, row.GetBoolOr("cached", false));
    saw_cached = saw_cached || cached;
    ++records;
  }
  EXPECT_EQ(records, 2u);
  EXPECT_TRUE(saw_cached);  // the repeat COUNT was served from the cache
  std::remove(path.c_str());
}

TEST(HttpMetricsTest, RequestLineRouting) {
  std::string metrics = HttpMetricsResponseFor("GET /metrics HTTP/1.1");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(
      metrics.find("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
      std::string::npos);
  // Query strings are routed on the path alone.
  EXPECT_NE(HttpMetricsResponseFor("GET /metrics?format=x HTTP/1.1")
                .find("200 OK"),
            std::string::npos);
  EXPECT_NE(HttpMetricsResponseFor("GET /healthz HTTP/1.1").find("ok\n"),
            std::string::npos);
  EXPECT_NE(HttpMetricsResponseFor("POST /metrics HTTP/1.1")
                .find("405 Method Not Allowed"),
            std::string::npos);
  EXPECT_NE(HttpMetricsResponseFor("GET /nope HTTP/1.1").find("404 Not Found"),
            std::string::npos);
  EXPECT_NE(HttpMetricsResponseFor("garbage").find("400 Bad Request"),
            std::string::npos);
}

TEST_F(ServeServerTest, MetricsEndpointServesLabeledPrometheusSeries) {
  StartServer();
  ServeClient client;
  ASSERT_OK(client.Connect("127.0.0.1", server_->port()));
  ASSERT_OK(client.Hello("analyst-token"));
  ASSERT_OK(client.Count("demo", "Age:25..40").status());

  HttpMetricsServer http;
  ASSERT_OK(http.Start());
  ASSERT_GT(http.port(), 0);

  RawConnection scraper;
  ASSERT_TRUE(scraper.Connect(http.port()));
  const std::string request =
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ASSERT_EQ(::send(scraper.fd(), request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(scraper.fd(), buf, sizeof(buf), 0);
    if (n <= 0) break;  // Connection: close — EOF ends the response
    response.append(buf, static_cast<size_t>(n));
  }
  http.Stop();

  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  // The per-tenant serve.requests family made it through the sanitizer with
  // its labels intact.
  EXPECT_NE(response.find("# TYPE serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(response.find("tenant=\"analyst\""), std::string::npos);
  EXPECT_NE(response.find("dataset=\"demo\""), std::string::npos);
}

TEST_F(ServeServerTest, InjectedDelayLandsInSlowLogAndTailWithOneTraceId) {
  if (!FaultInjector::CompiledIn()) {
    GTEST_SKIP() << "fault sites compiled out (SECRETA_FAULTS=OFF)";
  }
  TraceTail::Global().Clear();
  std::string path = ::testing::TempDir() + "/secreta_serve_delay.jsonl";
  ASSERT_OK(SlowQueryLog::Global().Open(path));
  ServerOptions options;
  options.slow_query_threshold_seconds = 0.05;
  StartServer(options);

  ServeClient client;
  ASSERT_OK(client.Connect("127.0.0.1", server_->port()));
  ASSERT_OK(client.Hello("analyst-token"));
  // Stall the serve.request fault site past the threshold: the COUNT still
  // succeeds, but its end-to-end latency is now "slow" and must surface in
  // BOTH artifacts under the same trace id.
  ASSERT_OK(FaultInjector::Global().Configure("serve.request:delay:0.1"));
  ASSERT_OK(client.Count("demo", "Age:25..40").status());
  FaultInjector::Global().Clear();
  server_->Stop();
  SlowQueryLog::Global().Close();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  ASSERT_OK_AND_ASSIGN(JsonValue row, JsonValue::Parse(line));
  ASSERT_OK_AND_ASSIGN(uint64_t logged_id, row.GetUint("trace_id"));
  ASSERT_OK_AND_ASSIGN(double total, row.GetNumber("total_seconds"));
  EXPECT_GE(total, 0.05);
  ASSERT_OK_AND_ASSIGN(std::string outcome, row.GetStringOr("outcome", ""));
  EXPECT_EQ(outcome, "ok");

  bool matched = false;
  for (const RequestTrace& trace : TraceTail::Global().Snapshot()) {
    if (trace.trace_id != logged_id) continue;
    matched = true;
    EXPECT_TRUE(trace.slow);
    EXPECT_FALSE(trace.error);
    EXPECT_GE(trace.total_seconds, 0.05);
  }
  EXPECT_TRUE(matched);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// ServeConcurrencyTest — many clients, one release, byte-identical answers.

TEST(ServeConcurrencyTest, EightClientsMatchSerialReference) {
  DatasetCatalog catalog;
  ASSERT_OK(catalog.Publish("demo", testing::SmallRtDataset(300, 13),
                            SmallReleaseOptions())
                .status());
  TenantRegistry tenants;
  TenantConfig tenant;
  tenant.name = "hammer";
  tenant.token = "hammer-token";
  ASSERT_OK(tenants.AddTenant(tenant));
  ServerOptions options;
  options.max_connections = 9;
  options.admission.default_deadline_seconds = 30;
  QueryServer server(&catalog, &tenants, nullptr, options);
  ASSERT_OK(server.Start());

  const std::vector<std::string> queries = {
      "Age:20..30", "Age:25..45", "Age:30..55;items:i1",
      "Age:22..28", "items:i2",   "Age:35..50;items:i3",
  };
  // Serial reference pass.
  std::vector<double> reference;
  {
    ServeClient client;
    ASSERT_OK(client.Connect("127.0.0.1", server.port()));
    ASSERT_OK(client.Hello("hammer-token"));
    for (const std::string& query : queries) {
      ASSERT_OK_AND_ASSIGN(ServeClient::CountResult result,
                           client.Count("demo", query));
      reference.push_back(result.count);
    }
    ASSERT_OK(client.Bye());
  }

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 24;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ServeClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok() ||
          !client.Hello("hammer-token").ok()) {
        failures.fetch_add(kQueriesPerClient);
        return;
      }
      for (int q = 0; q < kQueriesPerClient; ++q) {
        size_t which = static_cast<size_t>(c + q) % queries.size();
        Result<ServeClient::CountResult> result =
            client.Count("demo", queries[which]);
        if (!result.ok()) {
          failures.fetch_add(1);
        } else if (result->count != reference[which]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  server.Stop();
}

}  // namespace
}  // namespace secreta
