// The plcsim serve subsystem: the HTTP request parser (bodies, framing,
// limits, pipelining), the plc-serve-job/1 schema, the scheduler's
// admission / coalescing / cancel / drain state machine, and the Server
// end to end — including byte-identity of served reports against the
// direct scenario path and the shutdown ordering under drain.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "serve/job.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "store/result_store.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/http.hpp"
#include "util/socket.hpp"

namespace {

using namespace plc;
namespace fs = std::filesystem;

/// Fresh directory under the test temp root, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag)
      : path(fs::path(::testing::TempDir()) /
             ("plc_serve_test_" + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
  fs::path path;
};

/// A tiny sim+model spec; `reps` scales how long the job runs.
std::string spec_json(const std::string& name, int reps = 2,
                      std::int64_t duration_ns = 500'000'000) {
  std::ostringstream out;
  out << "{\"schema\":\"plc-scenario/1\",\"name\":\"" << name << "\","
      << "\"macs\":[{\"label\":\"CA1\",\"type\":\"1901\","
      << "\"preset\":\"ca0_ca1\"}],\"stations\":[2,3],"
      << "\"duration_ns\":" << duration_ns << ","
      << "\"repetitions\":" << reps << ",\"seed\":\"0x7e57\","
      << "\"legs\":{\"sim\":true,\"model\":true}}";
  return out.str();
}

/// A testbed spec: `tests` tests of `testbed_ns` per station count, plus
/// a sim leg of `reps` repetitions when `reps` > 0.
std::string testbed_spec_json(const std::string& name,
                              const std::string& stations, int tests,
                              std::int64_t testbed_ns, int reps = 0) {
  std::ostringstream out;
  out << "{\"schema\":\"plc-scenario/1\",\"name\":\"" << name << "\","
      << "\"macs\":[{\"label\":\"CA1\",\"type\":\"1901\","
      << "\"preset\":\"ca0_ca1\"}],\"stations\":[" << stations << "],"
      << "\"duration_ns\":500000000,"
      << "\"repetitions\":" << (reps > 0 ? reps : 1)
      << ",\"seed\":\"0x7e57\","
      << "\"legs\":{\"sim\":" << (reps > 0 ? "true" : "false")
      << ",\"model\":false,\"testbed\":true},"
      << "\"testbed\":{\"tests\":" << tests
      << ",\"duration_ns\":" << testbed_ns << "}}";
  return out.str();
}

util::HttpRequest make_request(const std::string& method,
                               const std::string& path,
                               const std::string& body = "") {
  util::HttpRequest request;
  request.method = method;
  request.path = path;
  request.version = "HTTP/1.1";
  request.body = body;
  return request;
}

/// Status code of a raw response string ("HTTP/1.1 202 Accepted...").
int status_of(const std::string& response) {
  const std::size_t space = response.find(' ');
  return std::stoi(response.substr(space + 1));
}

/// Body (bytes after the blank line) of a raw response string.
std::string body_of(const std::string& response) {
  return response.substr(response.find("\r\n\r\n") + 4);
}

std::string json_string(const obs::JsonValue& object, const char* key) {
  const obs::JsonValue* value = object.find(key);
  return value != nullptr ? value->text : "";
}

/// Polls until job `id` left the queue and is actually running.
void wait_running(serve::Server& server, const std::string& id) {
  for (int i = 0; i < 3000; ++i) {
    const auto job = server.scheduler().job(id);
    if (job.has_value() && job->state != serve::JobState::kQueued) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ADD_FAILURE() << "job " << id << " never started running";
}

/// Polls the scheduler until job `id` reaches a terminal state.
serve::JobInfo wait_terminal(serve::Server& server, const std::string& id) {
  for (int i = 0; i < 3000; ++i) {
    const auto job = server.scheduler().job(id);
    if (job.has_value() && serve::job_state_terminal(job->state)) return *job;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ADD_FAILURE() << "job " << id << " never reached a terminal state";
  return server.scheduler().job(id).value();
}

// ------------------------------------------------------------ http parser

TEST(HttpParser, ParsesGetWithQueryAndHeaders) {
  const std::string raw =
      "GET /v1/jobs?limit=2 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "X-Custom:  padded value \r\n"
      "\r\n";
  const util::HttpParseResult result = util::parse_http_request(raw);
  ASSERT_EQ(result.status, util::HttpParseStatus::kComplete);
  EXPECT_EQ(result.consumed, raw.size());
  EXPECT_EQ(result.request.method, "GET");
  EXPECT_EQ(result.request.path, "/v1/jobs");
  EXPECT_EQ(result.request.query, "limit=2");
  EXPECT_EQ(result.request.version, "HTTP/1.1");
  // Header names are lower-cased, values trimmed; lookup is
  // case-insensitive either way.
  ASSERT_NE(result.request.header("x-custom"), nullptr);
  EXPECT_EQ(*result.request.header("X-CUSTOM"), "padded value");
  EXPECT_TRUE(result.request.body.empty());
}

TEST(HttpParser, ParsesPostBodyByContentLength) {
  const std::string raw =
      "POST /v1/jobs HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
  const util::HttpParseResult result = util::parse_http_request(raw);
  ASSERT_EQ(result.status, util::HttpParseStatus::kComplete);
  EXPECT_EQ(result.request.body, "hello world");
  EXPECT_EQ(result.consumed, raw.size());
}

TEST(HttpParser, TruncatedRequestsWantMoreBytes) {
  // No CRLFCRLF yet: a valid prefix, not an error.
  EXPECT_EQ(util::parse_http_request("GET / HTTP/1.1\r\nHos").status,
            util::HttpParseStatus::kNeedMore);
  // Complete head, body still short of Content-Length.
  EXPECT_EQ(util::parse_http_request(
                "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
                .status,
            util::HttpParseStatus::kNeedMore);
}

TEST(HttpParser, PipelinedRequestsConsumeExactly) {
  const std::string first =
      "POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
  const std::string second = "GET /b HTTP/1.1\r\n\r\n";
  std::string buffer = first + second;
  const util::HttpParseResult one = util::parse_http_request(buffer);
  ASSERT_EQ(one.status, util::HttpParseStatus::kComplete);
  EXPECT_EQ(one.consumed, first.size());
  EXPECT_EQ(one.request.body, "abc");
  // The leftover bytes are exactly the second request.
  const util::HttpParseResult two =
      util::parse_http_request(buffer.substr(one.consumed));
  ASSERT_EQ(two.status, util::HttpParseStatus::kComplete);
  EXPECT_EQ(two.request.path, "/b");
  EXPECT_EQ(two.consumed, second.size());
}

TEST(HttpParser, OversizedBodyIs413BeforeBuffering) {
  util::HttpLimits limits;
  limits.max_body_bytes = 16;
  // The declared length alone triggers the rejection — no body bytes
  // need to arrive (or be buffered) first.
  const util::HttpParseResult result = util::parse_http_request(
      "POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n", limits);
  ASSERT_EQ(result.status, util::HttpParseStatus::kError);
  EXPECT_EQ(result.error_status, 413);
}

TEST(HttpParser, OversizedHeadIs431) {
  util::HttpLimits limits;
  limits.max_head_bytes = 64;
  const std::string raw = "GET / HTTP/1.1\r\nX-Pad: " +
                          std::string(100, 'x') + "\r\n\r\n";
  const util::HttpParseResult result = util::parse_http_request(raw, limits);
  ASSERT_EQ(result.status, util::HttpParseStatus::kError);
  EXPECT_EQ(result.error_status, 431);
}

TEST(HttpParser, MalformedFramingIs400) {
  // Conflicting Content-Length values.
  EXPECT_EQ(util::parse_http_request("POST / HTTP/1.1\r\n"
                                     "Content-Length: 3\r\n"
                                     "Content-Length: 4\r\n\r\n")
                .error_status,
            400);
  // Junk Content-Length.
  EXPECT_EQ(util::parse_http_request(
                "POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n")
                .error_status,
            400);
  // Missing colon in a header line.
  EXPECT_EQ(util::parse_http_request("GET / HTTP/1.1\r\nbroken\r\n\r\n")
                .error_status,
            400);
  // Malformed request line.
  EXPECT_EQ(util::parse_http_request("GET /\r\n\r\n").error_status, 400);
}

TEST(HttpParser, TransferEncodingIs501) {
  const util::HttpParseResult result = util::parse_http_request(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  ASSERT_EQ(result.status, util::HttpParseStatus::kError);
  EXPECT_EQ(result.error_status, 501);
}

TEST(HttpResponse, CarriesExtraHeadersAndConnectionClose) {
  const std::string response =
      util::http_response(429, "application/json", "{}", {"Retry-After: 1"});
  EXPECT_NE(response.find("HTTP/1.1 429 Too Many Requests\r\n"),
            std::string::npos);
  EXPECT_NE(response.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_EQ(body_of(response), "{}");
}

// -------------------------------------------------------- job schema

TEST(JobSchema, RoundTripsCanonically) {
  serve::JobInfo job;
  job.id = "j7";
  job.state = serve::JobState::kDone;
  job.spec_hash = std::string(32, 'a');
  job.submitted_seq = 7;
  job.tasks_total = 4;
  job.tasks_completed = 4;
  job.store_hits = 2;
  job.store_misses = 2;
  job.wall_seconds = 1.5;
  job.spec = scenario::Spec::from_json(spec_json("round-trip"));
  const std::string bytes = job.to_json();
  const serve::JobInfo parsed = serve::JobInfo::from_json(bytes);
  // Canonical: serializing the parse reproduces the bytes.
  EXPECT_EQ(parsed.to_json(), bytes);
  EXPECT_EQ(parsed.id, "j7");
  EXPECT_EQ(parsed.state, serve::JobState::kDone);
  EXPECT_EQ(parsed.spec.name, "round-trip");
}

TEST(JobSchema, RejectsUnknownKeysAndBadValues) {
  serve::JobInfo job;
  job.id = "j1";
  job.spec_hash = std::string(32, 'b');
  job.spec = scenario::Spec::from_json(spec_json("strict"));
  const std::string bytes = job.to_json();

  // Unknown key anywhere in the object is an error, not a warning.
  std::string smuggled = bytes;
  smuggled.insert(smuggled.size() - 1, ",\"extra\": 1");
  EXPECT_THROW(serve::JobInfo::from_json(smuggled), plc::Error);

  // Wrong schema string.
  std::string wrong = bytes;
  const std::string marker = "plc-serve-job/1";
  wrong.replace(wrong.find(marker), marker.size(), "plc-serve-job/9");
  EXPECT_THROW(serve::JobInfo::from_json(wrong), plc::Error);

  // Unknown state name.
  std::string state = bytes;
  const std::string queued = "\"queued\"";
  state.replace(state.find(queued), queued.size(), "\"paused\"");
  EXPECT_THROW(serve::JobInfo::from_json(state), plc::Error);
}

TEST(JobSchema, QueueRoundTripsThroughPersistenceFormat) {
  serve::JobInfo a;
  a.id = "j1";
  a.spec_hash = std::string(32, 'c');
  a.submitted_seq = 1;
  a.spec = scenario::Spec::from_json(spec_json("queue-a"));
  serve::JobInfo b = a;
  b.id = "j2";
  b.submitted_seq = 2;
  b.spec = scenario::Spec::from_json(spec_json("queue-b"));
  const std::string bytes = serve::queue_json({a, b});
  const std::vector<serve::JobInfo> parsed = serve::queue_from_json(bytes);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].spec.name, "queue-a");
  EXPECT_EQ(parsed[1].spec.name, "queue-b");
  EXPECT_EQ(serve::queue_json(parsed), bytes);
  EXPECT_THROW(serve::queue_from_json("{\"schema\":\"plc-serve-queue/1\"}"),
               plc::Error);
}

// ----------------------------------------------------------- end to end

TEST(ServeEndToEnd, ReportMatchesDirectScenarioRunByteForByte) {
  TempDir cache("report");
  serve::Server::Options options;
  options.jobs = 2;
  options.cache_dir = cache.str() + "/serve_store";
  serve::Server server(options);

  const std::string spec_text = spec_json("e2e-report");
  const std::string submit =
      *server.handle(make_request("POST", "/v1/jobs", spec_text));
  ASSERT_EQ(status_of(submit), 202);
  const obs::JsonValue job = obs::parse_json(body_of(submit));
  const std::string id = json_string(job, "id");
  ASSERT_FALSE(id.empty());

  EXPECT_EQ(wait_terminal(server, id).state, serve::JobState::kDone);
  const std::string report =
      *server.handle(make_request("GET", "/v1/jobs/" + id + "/report"));
  ASSERT_EQ(status_of(report), 200);

  // The same spec through the direct path (different store directory;
  // the report's cache section is store-contents-invariant).
  store::ResultStore direct_store(cache.str() + "/direct_store");
  scenario::RunOptions direct;
  direct.jobs = 1;
  direct.out = nullptr;
  direct.store = &direct_store;
  const scenario::RunOutcome outcome =
      scenario::run_scenario(scenario::Spec::from_json(spec_text), direct);
  std::ostringstream expected;
  outcome.report.write_json(expected);
  EXPECT_EQ(body_of(report), expected.str());
}

TEST(ServeEndToEnd, WarmResubmitCompletesFromStoreHits) {
  TempDir cache("warm");
  serve::Server::Options options;
  options.jobs = 2;
  options.cache_dir = cache.str();
  serve::Server server(options);

  const std::string spec_text = spec_json("warm");
  const std::string cold =
      *server.handle(make_request("POST", "/v1/jobs", spec_text));
  ASSERT_EQ(status_of(cold), 202);
  const std::string cold_id =
      json_string(obs::parse_json(body_of(cold)), "id");
  const serve::JobInfo cold_job = wait_terminal(server, cold_id);
  ASSERT_EQ(cold_job.state, serve::JobState::kDone);
  EXPECT_EQ(cold_job.store_hits, 0);
  EXPECT_GT(cold_job.store_misses, 0);

  // Same spec after the first job finished: a fresh job (not coalesced)
  // that completes entirely from the store, byte-identically.
  const std::string warm =
      *server.handle(make_request("POST", "/v1/jobs", spec_text));
  ASSERT_EQ(status_of(warm), 202);
  const std::string warm_id =
      json_string(obs::parse_json(body_of(warm)), "id");
  ASSERT_NE(warm_id, cold_id);
  const serve::JobInfo warm_job = wait_terminal(server, warm_id);
  ASSERT_EQ(warm_job.state, serve::JobState::kDone);
  EXPECT_EQ(warm_job.store_misses, 0);
  EXPECT_EQ(warm_job.store_hits, cold_job.store_misses);
  EXPECT_EQ(*server.scheduler().report(warm_id),
            *server.scheduler().report(cold_id));
}

TEST(ServeEndToEnd, DuplicateInFlightSubmitCoalesces) {
  serve::Server::Options options;
  options.jobs = 2;
  serve::Server server(options);

  // A long job occupies the dispatch thread; the duplicates target a
  // second spec that stays queued behind it.
  const std::string long_spec = spec_json("long", 40, 2'000'000'000);
  const std::string queued_spec = spec_json("queued");
  ASSERT_EQ(status_of(*server.handle(
                make_request("POST", "/v1/jobs", long_spec))),
            202);
  const std::string first =
      *server.handle(make_request("POST", "/v1/jobs", queued_spec));
  ASSERT_EQ(status_of(first), 202);
  const std::string dup =
      *server.handle(make_request("POST", "/v1/jobs", queued_spec));
  EXPECT_EQ(status_of(dup), 200);  // Coalesced, not a new job.
  EXPECT_EQ(json_string(obs::parse_json(body_of(dup)), "id"),
            json_string(obs::parse_json(body_of(first)), "id"));
  EXPECT_EQ(server.scheduler().jobs_coalesced(), 1);
  // Tear down mid-run: the Server dtor interrupts the running job.
}

TEST(ServeEndToEnd, QueueOverflowRejectsWith429) {
  serve::Server::Options options;
  options.jobs = 2;
  options.max_queue = 1;
  serve::Server server(options);

  const std::string long_submit = *server.handle(make_request(
      "POST", "/v1/jobs", spec_json("long", 40, 2'000'000'000)));
  ASSERT_EQ(status_of(long_submit), 202);
  // The running job does not count against the queue bound — wait for
  // the dispatch thread to pick it up before filling the single slot.
  wait_running(server,
               json_string(obs::parse_json(body_of(long_submit)), "id"));
  ASSERT_EQ(status_of(*server.handle(
                make_request("POST", "/v1/jobs", spec_json("fits")))),
            202);
  const std::string overflow = *server.handle(
      make_request("POST", "/v1/jobs", spec_json("overflow")));
  EXPECT_EQ(status_of(overflow), 429);
  EXPECT_NE(overflow.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_EQ(server.scheduler().jobs_rejected(), 1);
}

TEST(ServeEndToEnd, CancelMidRunStopsTheJob) {
  serve::Server::Options options;
  options.jobs = 2;
  serve::Server server(options);

  const std::string submit = *server.handle(make_request(
      "POST", "/v1/jobs", spec_json("cancel-me", 200, 4'000'000'000)));
  ASSERT_EQ(status_of(submit), 202);
  const std::string id = json_string(obs::parse_json(body_of(submit)), "id");

  const std::string cancel =
      *server.handle(make_request("DELETE", "/v1/jobs/" + id));
  EXPECT_EQ(status_of(cancel), 200);
  const serve::JobInfo job = wait_terminal(server, id);
  EXPECT_EQ(job.state, serve::JobState::kCancelled);
  // No report for a cancelled job.
  EXPECT_EQ(status_of(*server.handle(
                make_request("GET", "/v1/jobs/" + id + "/report"))),
            409);
  // A second cancel is a conflict, not a crash.
  EXPECT_EQ(status_of(*server.handle(
                make_request("DELETE", "/v1/jobs/" + id))),
            409);
}

// Both engine legs report task progress: a done job's count covers its
// testbed tests as well as its sim repetitions.
TEST(ServeEndToEnd, DoneJobCountsSimAndTestbedTasks) {
  serve::Server::Options options;
  options.jobs = 2;
  serve::Server server(options);

  const std::string submit = *server.handle(make_request(
      "POST", "/v1/jobs",
      testbed_spec_json("both-legs", "2,3", 3, 500'000'000, 2)));
  ASSERT_EQ(status_of(submit), 202);
  const std::string id = json_string(obs::parse_json(body_of(submit)), "id");
  const serve::JobInfo job = wait_terminal(server, id);
  ASSERT_EQ(job.state, serve::JobState::kDone);
  EXPECT_EQ(job.tasks_total, 10);  // 2 N x 2 reps + 2 N x 3 tests.
  EXPECT_EQ(job.tasks_completed, job.tasks_total);
}

// The exact N = 2 chain is an engine task too: a tiny 1901 chain (CW
// {4, 8}, DC {0, 1}) at N = 2 and 3 with two sim repetitions is 2 x 2
// sim tasks plus 1 exact task.
TEST(ServeEndToEnd, DoneJobCountsTheExactPairTask) {
  serve::Server::Options options;
  options.jobs = 2;
  serve::Server server(options);

  const std::string spec =
      "{\"schema\":\"plc-scenario/1\",\"name\":\"exact-leg\","
      "\"macs\":[{\"label\":\"TINY\",\"type\":\"1901\",\"cw\":[4,8],"
      "\"dc\":[0,1]}],\"stations\":[2,3],\"duration_ns\":200000000,"
      "\"repetitions\":2,\"seed\":\"0x7e57\","
      "\"legs\":{\"sim\":true,\"model\":false,\"exact_pair\":true}}";
  const std::string submit =
      *server.handle(make_request("POST", "/v1/jobs", spec));
  ASSERT_EQ(status_of(submit), 202);
  const std::string id = json_string(obs::parse_json(body_of(submit)), "id");
  const serve::JobInfo job = wait_terminal(server, id);
  ASSERT_EQ(job.state, serve::JobState::kDone);
  EXPECT_EQ(job.tasks_total, 5);
  EXPECT_EQ(job.tasks_completed, job.tasks_total);
}

// DELETE interrupts a testbed leg at task granularity: with more tests
// than workers, the tests not yet started never run and the job ends
// cancelled. Five tests on two workers: when the first finishes, at most
// two more can start before the DELETE lands, so the fifth never does.
TEST(ServeEndToEnd, CancelInterruptsTestbedLeg) {
  serve::Server::Options options;
  options.jobs = 2;
  serve::Server server(options);

  const std::string submit = *server.handle(make_request(
      "POST", "/v1/jobs",
      testbed_spec_json("testbed-cancel", "7", 5, 100'000'000'000)));
  ASSERT_EQ(status_of(submit), 202);
  const std::string id = json_string(obs::parse_json(body_of(submit)), "id");
  for (int i = 0; i < 60'000; ++i) {
    const auto job = server.scheduler().job(id);
    if (job.has_value() && (job->tasks_completed >= 1 ||
                            serve::job_state_terminal(job->state))) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.scheduler().job(id)->state, serve::JobState::kRunning);
  EXPECT_EQ(status_of(*server.handle(make_request("DELETE", "/v1/jobs/" + id))),
            200);
  const serve::JobInfo job = wait_terminal(server, id);
  EXPECT_EQ(job.state, serve::JobState::kCancelled);
  EXPECT_LT(job.tasks_completed, 5);
  EXPECT_EQ(status_of(*server.handle(
                make_request("GET", "/v1/jobs/" + id + "/report"))),
            409);
}

TEST(ServeEndToEnd, ApiErrorsAreWellFormed) {
  serve::Server server(serve::Server::Options{});
  EXPECT_EQ(status_of(*server.handle(
                make_request("GET", "/v1/jobs/nope"))),
            404);
  EXPECT_EQ(status_of(*server.handle(
                make_request("PUT", "/v1/jobs"))),
            405);
  EXPECT_EQ(status_of(*server.handle(make_request("GET", "/v1/what"))),
            404);
  const std::string bad =
      *server.handle(make_request("POST", "/v1/jobs", "{\"nope\": 1}"));
  EXPECT_EQ(status_of(bad), 400);
  EXPECT_NE(body_of(bad).find("plc-serve-error/1"), std::string::npos);
  // Non-API paths fall through to the telemetry routes (nullopt).
  EXPECT_FALSE(server.handle(make_request("GET", "/metrics")).has_value());
}

TEST(ServeEndToEnd, DrainPersistsQueueAndRestartResumes) {
  TempDir dir("drain");
  const std::string queue_file = dir.str() + "/queue.json";
  const std::string cache_dir = dir.str() + "/store";
  const std::string running_spec = spec_json("drain-running", 40,
                                             2'000'000'000);
  const std::string queued_spec = spec_json("drain-queued");
  {
    serve::Server::Options options;
    options.jobs = 2;
    options.cache_dir = cache_dir;
    options.queue_file = queue_file;
    serve::Server server(options);
    ASSERT_EQ(status_of(*server.handle(
                  make_request("POST", "/v1/jobs", running_spec))),
              202);
    ASSERT_EQ(status_of(*server.handle(
                  make_request("POST", "/v1/jobs", queued_spec))),
              202);
    server.drain();
    // Draining refuses new work with 503.
    EXPECT_EQ(status_of(*server.handle(
                  make_request("POST", "/v1/jobs", spec_json("late")))),
              503);
    // The interrupted running job and the queued job are both owed.
    EXPECT_TRUE(fs::exists(queue_file));
    const std::vector<serve::JobInfo> owed =
        serve::queue_from_json(util::read_file(queue_file));
    ASSERT_EQ(owed.size(), 2u);
    EXPECT_EQ(owed[0].spec.name, "drain-running");
    EXPECT_EQ(owed[1].spec.name, "drain-queued");
  }
  // A restarted server re-admits the owed jobs and consumes the file;
  // tasks the interrupted job already published resume as store hits.
  serve::Server::Options options;
  options.jobs = 2;
  options.cache_dir = cache_dir;
  options.queue_file = queue_file;
  serve::Server server(options);
  EXPECT_EQ(server.restored_jobs(), 2);
  EXPECT_FALSE(fs::exists(queue_file));
  const std::vector<serve::JobInfo> jobs = server.scheduler().jobs();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(wait_terminal(server, jobs[1].id).state,
            serve::JobState::kDone);
}

TEST(ServeEndToEnd, ServesTheApiOverRealSockets) {
  TempDir cache("sockets");
  serve::Server::Options options;
  options.jobs = 2;
  options.cache_dir = cache.str();
  options.limits.max_body_bytes = 4096;
  serve::Server server(options);
  server.start();
  ASSERT_GT(server.port(), 0);

  const auto roundtrip = [&](const std::string& request) {
    util::Socket client = util::Socket::connect_tcp("127.0.0.1",
                                                    server.port());
    client.send_all(request);
    return client.recv_all();
  };

  const std::string spec_text = spec_json("sockets");
  const std::string submit = roundtrip(
      "POST /v1/jobs HTTP/1.1\r\nContent-Length: " +
      std::to_string(spec_text.size()) + "\r\n\r\n" + spec_text);
  ASSERT_EQ(status_of(submit), 202);
  const std::string id =
      json_string(obs::parse_json(body_of(submit)), "id");
  EXPECT_EQ(wait_terminal(server, id).state, serve::JobState::kDone);

  // The job listing and the telemetry plane share the port.
  EXPECT_NE(roundtrip("GET /v1/jobs HTTP/1.1\r\n\r\n")
                .find("plc-serve-jobs/1"),
            std::string::npos);
  const std::string metrics = roundtrip("GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(metrics.find("plc_serve_jobs_completed 1"), std::string::npos);

  // An oversized body is refused at the transport with 413.
  EXPECT_EQ(status_of(roundtrip(
                "POST /v1/jobs HTTP/1.1\r\nContent-Length: 5000\r\n\r\n")),
            413);
  server.stop();
}

}  // namespace
