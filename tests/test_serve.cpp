// ro-serve tests: admission-control determinism, the JobSpec wire schema
// (forward compatibility, garbage rejection), the line protocol over a
// real Unix socket (malformed input must produce error lines, never
// aborts), and served-vs-one-shot metric identity.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "ro/engine/fields.h"
#include "ro/engine/workloads.h"
#include "ro/serve/client.h"
#include "ro/serve/server.h"
#include "test_helpers.h"

namespace ro {
namespace {

std::string temp_socket(const char* tag) {
  return "/tmp/ro-serve-test." + std::string(tag) + "." +
         std::to_string(::getpid()) + ".sock";
}

// ---- admission control ----

TEST(Admission, OverBudgetJobIsRejectedImmediatelyAndDeterministically) {
  serve::Admission::Options opt;
  opt.tenant_budget_bytes = 1000;
  serve::Admission adm(opt);
  // Rejection depends only on (estimate, budget): the same ask is
  // rejected every time, even with the machine idle, and books nothing.
  for (int i = 0; i < 3; ++i) {
    double queue_ms = -1;
    EXPECT_FALSE(adm.admit("t", 1001, &queue_ms));
    EXPECT_EQ(queue_ms, 0);  // never waited
  }
  const serve::Admission::Stats st = adm.stats();
  EXPECT_EQ(st.rejected, 3u);
  EXPECT_EQ(st.admitted, 0u);
  EXPECT_EQ(st.resident_bytes, 0u);
  // Exactly at budget fits.
  EXPECT_TRUE(adm.admit("t", 1000));
  adm.release("t", 1000);
}

TEST(Admission, OverlappingTenantJobQueuesUntilResidentDrains) {
  serve::Admission::Options opt;
  opt.tenant_budget_bytes = 1000;
  serve::Admission adm(opt);
  ASSERT_TRUE(adm.admit("t", 800));
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    double queue_ms = 0;
    // Fits the budget, not the residue: must wait, and say for how long.
    EXPECT_TRUE(adm.admit("t", 800, &queue_ms));
    EXPECT_GT(queue_ms, 0);
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());  // still queued behind the first job
  adm.release("t", 800);
  waiter.join();
  EXPECT_TRUE(admitted.load());
  const serve::Admission::Stats st = adm.stats();
  EXPECT_EQ(st.admitted, 2u);
  EXPECT_EQ(st.queued, 1u);
  adm.release("t", 800);
  EXPECT_EQ(adm.stats().resident_bytes, 0u);
}

TEST(Admission, BudgetIsPerTenantAndInflightIsGlobal) {
  serve::Admission::Options opt;
  opt.max_inflight = 2;
  opt.tenant_budget_bytes = 1000;
  serve::Admission adm(opt);
  ASSERT_TRUE(adm.admit("a", 900));
  ASSERT_TRUE(adm.admit("b", 900));  // different tenant: own budget
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    EXPECT_TRUE(adm.admit("c", 100));  // fits every budget, but inflight=2
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());
  adm.release("a", 900);
  waiter.join();
  EXPECT_EQ(adm.stats().inflight_peak, 2u);
  adm.release("b", 900);
  adm.release("c", 100);
}

TEST(Admission, ShutdownWakesQueuedWaitersAndFailsFast) {
  serve::Admission::Options opt;
  opt.max_inflight = 1;
  serve::Admission adm(opt);
  ASSERT_TRUE(adm.admit("a", 10));
  std::atomic<bool> refused{false};
  std::thread waiter([&] {
    // Queued behind the in-flight job; shutdown() must wake it with a
    // refusal instead of making it wait for the job to drain.
    EXPECT_FALSE(adm.admit("b", 10));
    refused.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(refused.load());  // genuinely queued
  adm.shutdown();
  waiter.join();
  EXPECT_TRUE(refused.load());
  EXPECT_TRUE(adm.shutting_down());
  EXPECT_FALSE(adm.admit("c", 10));  // refused immediately from now on
  const serve::Admission::Stats st = adm.stats();
  EXPECT_EQ(st.admitted, 1u);
  EXPECT_EQ(st.rejected, 0u);  // shutdown refusals are not "rejected"
  adm.release("a", 10);        // admitted work still balances the books
  EXPECT_EQ(adm.stats().resident_bytes, 0u);
}

TEST(Admission, EstimateSaturatesInsteadOfWrapping) {
  // Wire-controlled factors must not wrap uint64 into a tiny estimate
  // that slips an over-budget job past admission.
  JobSpec s;
  s.workload = "msum";
  s.shards = 0xffffffffu;
  s.opt.trace.segment_tasks = uint64_t{1} << 60;
  s.opt.trace.max_resident_segments = 0xffffffffu;
  EXPECT_EQ(serve::estimate_job_bytes(s),
            std::numeric_limits<uint64_t>::max());
  serve::Admission::Options opt;
  opt.tenant_budget_bytes = uint64_t{1} << 40;  // generous, still finite
  serve::Admission adm(opt);
  EXPECT_FALSE(adm.admit("t", serve::estimate_job_bytes(s)));
  EXPECT_EQ(adm.stats().rejected, 1u);
  // The classic (non-streaming) path saturates too.
  s.opt.trace.segment_tasks = 0;
  s.n = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(serve::estimate_job_bytes(s),
            std::numeric_limits<uint64_t>::max());
}

TEST(Admission, EstimateIsDeterministicAndMonotone) {
  JobSpec s;
  s.workload = "msum";
  s.n = 1 << 12;
  const uint64_t e1 = serve::estimate_job_bytes(s);
  EXPECT_EQ(e1, serve::estimate_job_bytes(s));  // same spec, same number
  s.n = 1 << 13;
  EXPECT_GT(serve::estimate_job_bytes(s), e1);
  s.shards = 4;
  const uint64_t e_classic = serve::estimate_job_bytes(s);
  EXPECT_EQ(e_classic, 4 * serve::estimate_job_bytes([&] {
              JobSpec one = s;
              one.shards = 1;
              return one;
            }()));
  // Streaming caps the estimate at the resident window, not the trace.
  s.opt.trace.segment_tasks = 256;
  s.opt.trace.max_resident_segments = 2;
  EXPECT_LT(serve::estimate_job_bytes(s), e_classic);
}

// ---- JobSpec wire schema ----

TEST(JobSchema, NewerMinorWithUnknownKeysParses) {
  JobSpec base;
  base.workload = "msum";
  base.tenant = "t";
  std::string j = base.to_json();
  // A future 1.x writer: bumped minor, an extra key this build ignores.
  ASSERT_NE(j.find("\"schema_version\":\"1.0\""), std::string::npos);
  j.replace(j.find("\"1.0\""), 5, "\"1.7\"");
  j.insert(j.size() - 1, ",\"future_knob\":42,\"future_obj\":{\"x\":[1,2]}");
  JobSpec out;
  std::string err;
  EXPECT_TRUE(jobspec_from_json(j, out, &err)) << err;
  EXPECT_EQ(out.workload, "msum");
  EXPECT_EQ(out.tenant, "t");
  EXPECT_EQ(out.schema_version, "1.7");  // echoed, not rewritten
}

TEST(JobSchema, RetiredKeysAreIgnored) {
  // "flat_lru" selected the retired node-based LRU data plane, "pipeline"
  // the retired choice of batch schedule, "compress" the retired raw
  // spill layout.  A schema 1.x spec still carrying any of them parses,
  // drops it, and runs the same machine.
  const std::string plain =
      "{\"schema_version\":\"1.0\",\"workload\":\"msum\",\"n\":1024,"
      "\"backend\":\"sim-pws\"}";
  JobSpec a;
  std::string err;
  ASSERT_TRUE(jobspec_from_json(plain, a, &err)) << err;
  const JobResult ja = ro::testing::engine().submit(a);
  ASSERT_TRUE(ja.ok()) << ja.error;
  for (const std::string key : {"flat_lru", "pipeline", "compress"}) {
    std::string keyed = plain;
    keyed.insert(keyed.size() - 1, ",\"" + key + "\":1");
    JobSpec b;
    ASSERT_TRUE(jobspec_from_json(keyed, b, &err)) << err;
    EXPECT_EQ(b.to_json(), a.to_json()) << key;
    EXPECT_EQ(b.to_json().find(key), std::string::npos) << key;
    const JobResult jb = ro::testing::engine().submit(b);
    ASSERT_TRUE(jb.ok()) << jb.error;
    EXPECT_EQ(jb.report.sim, ja.report.sim) << key;
    EXPECT_EQ(jb.report.q_seq, ja.report.q_seq) << key;
  }
}

TEST(JobSchema, ValuesAboveU32AreRejectedNamingTheKey) {
  // A wrapped value would run a different machine and report ok:
  // p = 2^32 + 1 as p = 1, B = 2^32 + 32 as B = 32.
  const std::pair<std::string, std::string> cases[] = {
      {"p", "4294967297"}, {"B", "4294967328"}};
  for (const auto& [key, value] : cases) {
    const std::string j =
        "{\"workload\":\"msum\",\"" + key + "\":" + value + "}";
    JobSpec out;
    std::string err;
    EXPECT_FALSE(jobspec_from_json(j, out, &err)) << j;
    EXPECT_NE(err.find("\"" + key + "\""), std::string::npos) << err;
  }
  JobSpec out;
  EXPECT_TRUE(jobspec_from_json("{\"p\":4294967295}", out));  // UINT32_MAX
}

/// Expects `json` to fail parsing with a reason that names `key`.
void expect_parse_error(const std::string& json, const std::string& key) {
  JobSpec out;
  std::string err;
  EXPECT_FALSE(jobspec_from_json(json, out, &err)) << json;
  EXPECT_NE(err.find("\"" + key + "\""), std::string::npos) << err;
}

TEST(JobSchema, MistypedValuesAreRejectedNamingTheKey) {
  // Each used to run: "4x" as p = 4, 2.9 as p = 2, 1e3 as n = 1, "yes"
  // as unpadded, -1 as seed = 2^64 - 1.
  const std::pair<std::string, std::string> cases[] = {
      {"p", "\"4x\""}, {"p", "2.9"},  {"n", "1e3"},
      {"padded", "\"yes\""}, {"seed", "-1"}};
  for (const auto& [key, value] : cases) {
    expect_parse_error("{\"workload\":\"msum\",\"" + key + "\":" + value + "}",
                       key);
  }
}

TEST(JobSchema, DefaultSpecJsonIsByteIdenticalToSchema10) {
  // Key order and spelling as every 1.0 reader and writer has them.
  EXPECT_EQ(JobSpec{}.to_json(),
            "{\"schema_version\":\"1.0\",\"tenant\":\"\",\"kind\":\"run\","
            "\"workload\":\"\",\"n\":4096,\"seed\":0,\"shards\":1,"
            "\"backend\":\"seq\",\"p\":4,\"M\":16384,\"B\":64,"
            "\"miss_latency\":32,\"steal_latency\":0,\"sim_seed\":24301,"
            "\"M2\":0,\"l2_latency\":8,\"write_hold\":0,"
            "\"replay_threads\":1,\"padded\":0,\"align_words\":4096,"
            "\"seq_baseline\":1,\"capacity_shared\":0,"
            "\"segment_tasks\":0,\"max_resident_segments\":4,"
            "\"threads\":0,\"serial_below\":4096,\"numa_groups\":0,"
            "\"numa_escape\":0.0625,\"numa_pin\":0,\"doc_max_lines\":64,"
            "\"doc_min_false_events\":1}");
}

// ---- the field tables (engine/fields.h) ----

/// Sets the member to a value that differs from its current one and lies
/// in the row's range: the range's top (or bottom, if already there),
/// 1/3 for a double (no short decimal form), every knob of a nested
/// tuning.
void set_non_default(const FieldInfo& f, const FieldRef& r) {
  std::visit(
      [&](auto* p) {
        using T = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_same_v<T, bool>) {
          *p = !*p;
        } else if constexpr (std::is_integral_v<T>) {
          const T hi = f.hi == FieldInfo::kAny
                           ? std::numeric_limits<T>::max()
                           : static_cast<T>(f.hi);
          *p = *p == hi ? static_cast<T>(f.lo) : hi;
        } else if constexpr (std::is_same_v<T, double>) {
          *p = f.lo + (f.hi - f.lo) / 3;
        } else if constexpr (std::is_same_v<T, std::string>) {
          *p = f.rule == FieldRule::kVersion ? "1.7" : "a \"quoted\"\\ line\n";
        } else if constexpr (std::is_same_v<T, JobKind>) {
          *p = JobKind::kDiagnose;
        } else if constexpr (std::is_same_v<T, JobStatus>) {
          *p = JobStatus::kError;
        } else if constexpr (std::is_same_v<T, Backend>) {
          *p = Backend::kSimRws;
        } else {
          alg::SpmsTuning t;
          for (const auto& g : spms_fields()) set_non_default(g, g.at(t));
          *p = t;
        }
      },
      r);
}

/// Raw JSON values the row must refuse: outside its range, or not
/// entirely of its type.
std::vector<std::string> bad_values(const FieldInfo& f, const FieldRef& r) {
  return std::visit(
      [&](auto* p) -> std::vector<std::string> {
        using T = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_same_v<T, bool>) {
          return {"2", "-1", "1.0", "\"yes\"", "\"1x\""};
        } else if constexpr (std::is_integral_v<T>) {
          std::vector<std::string> v = {"-1", "2.9", "1e3", "\"4x\""};
          if (f.lo > 0) v.push_back(std::to_string(uint64_t(f.lo) - 1));
          if (f.hi != FieldInfo::kAny) {
            v.push_back(std::to_string(uint64_t(f.hi) + 1));
          } else {  // one past the member's type
            v.push_back(sizeof(T) == 4 ? "4294967296" : "18446744073709551616");
          }
          if (f.rule == FieldRule::kPow2) {
            v.push_back(std::to_string(2 * uint64_t(f.lo) + 1));
          }
          return v;
        } else if constexpr (std::is_same_v<T, double>) {
          return {std::to_string(f.lo - 0.5), std::to_string(f.hi + 0.5),
                  "nan", "\"0.5x\""};
        } else if constexpr (std::is_same_v<T, std::string>) {
          if (f.rule != FieldRule::kVersion) return {};  // free-form
          return {"\"2.0\"", "\"1\"", "\"1.x\""};
        } else if constexpr (std::is_enum_v<T>) {
          return {"\"bogus\""};
        } else {  // the nested tuning: each knob's bad values, one at a time
          std::vector<std::string> v = {"\"not an object\""};
          alg::SpmsTuning t;
          for (const auto& g : spms_fields()) {
            for (const std::string& b : bad_values(g, g.at(t)))
              v.push_back("{\"" + std::string(g.key) + "\":" + b + "}");
          }
          return v;
        }
      },
      r);
}

bool same_value(const FieldRef& a, const FieldRef& b) {
  return std::visit([&](auto* x) { return *x == *std::get<decltype(x)>(b); },
                    a);
}

/// `why` names `key` as "key" or, for a nested knob, "key.knob".
bool names_key(const std::string& why, const std::string& key) {
  return why.find("\"" + key + "\"") != std::string::npos ||
         why.find("\"" + key + ".") != std::string::npos;
}

TEST(JobSchema, EveryFieldRoundTripsExactlyAndRefusesBadValuesNamingTheKey) {
  for (const Field<JobSpec>& f : jobspec_fields()) {
    SCOPED_TRACE(f.key);
    JobSpec spec;
    set_non_default(f, f.at(spec));
    std::string err;
    EXPECT_TRUE(check_field(f, f.at(spec), &err)) << err;
    JobSpec back;
    ASSERT_TRUE(jobspec_from_json(spec.to_json(), back, &err)) << err;
    EXPECT_TRUE(same_value(f.at(spec), f.at(back))) << spec.to_json();
    JobSpec defaults;
    EXPECT_FALSE(same_value(f.at(spec), f.at(defaults)));

    for (const std::string& bad : bad_values(f, f.at(spec))) {
      const std::string json = "{\"" + std::string(f.key) + "\":" + bad + "}";
      JobSpec out;
      std::string why;
      const bool refused = !jobspec_from_json(json, out, &why) ||
                           !check_fields(jobspec_fields(), out, &why);
      EXPECT_TRUE(refused) << json;
      EXPECT_TRUE(names_key(why, f.key)) << json << " -> " << why;
    }
  }
}

TEST(JobSchema, DocsWireTableListsExactlyTheFieldTables) {
  const auto doc = std::filesystem::path(__FILE__).parent_path().parent_path() /
                   "docs" / "serve.md";
  std::ifstream in(doc);
  ASSERT_TRUE(in) << doc;
  // The rows of the "## Wire fields" table start with "| `key` |".
  std::set<std::string> documented;
  bool in_section = false;
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with("## ")) in_section = line == "## Wire fields";
    if (in_section && line.starts_with("| `"))
      documented.insert(line.substr(3, line.find('`', 3) - 3));
  }
  std::set<std::string> fields;
  for (const auto& f : jobspec_fields()) fields.insert(f.key);
  for (const auto& f : spms_fields())
    fields.insert("spms." + std::string(f.key));
  EXPECT_EQ(documented, fields);
}

// ---- wire inputs that used to abort the process ----

/// Parses `json` as a wire spec, submits it, and expects a kError result
/// whose reason names `field`.
void expect_wire_error(const std::string& json, const std::string& field) {
  JobSpec spec;
  std::string err;
  ASSERT_TRUE(jobspec_from_json(json, spec, &err)) << err;
  const JobResult jr = ro::testing::engine().submit(spec);
  EXPECT_EQ(jr.status, JobStatus::kError) << json;
  EXPECT_NE(jr.error.find(field), std::string::npos) << jr.error;
}

TEST(WireInput, NumaEscapeAboveOneIsAnError) {
  expect_wire_error(
      "{\"workload\":\"msum\",\"backend\":\"par-numa-random\","
      "\"numa_escape\":7}",
      "numa_escape");
}

TEST(WireInput, NumaEscapeBelowZeroIsAnError) {
  expect_wire_error(
      "{\"workload\":\"msum\",\"backend\":\"par-numa-random\","
      "\"numa_escape\":-0.5}",
      "numa_escape");
}

TEST(WireInput, NumaEscapeNanIsAnError) {
  JobSpec spec;
  spec.workload = "msum";
  spec.opt.backend = Backend::kParNumaRandom;
  spec.opt.numa_escape = std::numeric_limits<double>::quiet_NaN();
  const JobResult jr = ro::testing::engine().submit(spec);
  EXPECT_EQ(jr.status, JobStatus::kError);
  EXPECT_NE(jr.error.find("numa_escape"), std::string::npos) << jr.error;
}

TEST(WireInput, ThreadsAbovePoolLimitIsAnError) {
  expect_wire_error(
      "{\"workload\":\"msum\",\"backend\":\"par-random\","
      "\"threads\":1000}",
      "threads");
}

TEST(WireInput, AlignWordsNotAPowerOfTwoIsAnError) {
  expect_wire_error(
      "{\"workload\":\"msum\",\"backend\":\"sim-pws\","
      "\"align_words\":3}",
      "align_words");
}

TEST(WireInput, AlignWordsZeroIsAnError) {
  expect_wire_error(
      "{\"workload\":\"msum\",\"backend\":\"sim-pws\","
      "\"align_words\":0}",
      "align_words");
}

TEST(WireInput, NegativeCacheSizeIsAParseError) {
  // Wrapped to M = 2^64 - 1: the replay's LRU slots threw bad_alloc.
  expect_parse_error(
      "{\"workload\":\"msum\",\"backend\":\"sim-pws\",\"M\":-1}", "M");
}

TEST(WireInput, WorkloadSizeAboveTheCapIsAnError) {
  // The workload's 2^40-word input threw bad_alloc.
  expect_wire_error(
      "{\"workload\":\"msum\",\"backend\":\"sim-pws\","
      "\"n\":1099511627776}",
      "\"n\"");
}

TEST(WireInput, BatchReplayThreadsAbovePoolLimitIsAnError) {
  // 300 shards with 300 replay threads asked rt::Pool for 300 workers.
  expect_wire_error(
      "{\"workload\":\"msum\",\"backend\":\"sim-pws\",\"kind\":\"batch\","
      "\"shards\":300,\"replay_threads\":300}",
      "replay_threads");
}

TEST(WireInput, AlignWordsBeyondTheShardSpanIsAnError) {
  // A 2^40-word alignment overflowed the shard's VSpace range.
  expect_wire_error(
      "{\"workload\":\"msum\",\"backend\":\"sim-pws\","
      "\"align_words\":1099511627776}",
      "align_words");
}

TEST(WireInput, SegmentTasksAboveTheCapIsAnError) {
  // The recorder reserved 2^60 records for its first segment.
  expect_wire_error(
      "{\"workload\":\"msum\",\"backend\":\"sim-pws\","
      "\"segment_tasks\":1152921504606846976}",
      "segment_tasks");
}

TEST(WireInput, EmptyPrefixSumsIsAnError) {
  // prefix_sums' RO_CHECK(a.n >= 1) aborted the daemon.
  expect_wire_error(
      "{\"workload\":\"ps\",\"backend\":\"sim-pws\",\"n\":0}", "\"ps\"");
}

TEST(WireInput, EveryIllegalWorkloadSizeIsAnError) {
  // Each registry row's size rule, probed at n = 0, just below its
  // minimum, just above its cap, and (on the pow2 / matrix rows) at n off
  // the rule: every pair is a kError naming the workload and n.
  for (const WorkloadRow& row : workload_rows()) {
    std::set<uint64_t> bad = {0, row.min_n - 1, row.max_n + 1};
    if (row.rule != SizeRule::kAny) bad.insert(12);  // not a power of two
    if (row.rule == SizeRule::kSquarePow2) bad.insert(8);  // not a square
    for (const uint64_t n : bad) {
      JobSpec spec;
      spec.workload = row.name;
      spec.n = n;
      spec.opt.backend = Backend::kSimPws;
      const JobResult jr = ro::testing::engine().submit(spec);
      EXPECT_EQ(jr.status, JobStatus::kError) << row.name << " n=" << n;
      EXPECT_NE(jr.error.find("\"" + std::string(row.name) + "\""),
                std::string::npos)
          << jr.error;
      EXPECT_NE(jr.error.find("got " + std::to_string(n)), std::string::npos)
          << jr.error;
      EXPECT_FALSE(make_workload(row.name, n, 0)) << row.name << " n=" << n;
    }
  }
}

TEST(JobSchema, NewerMajorIsRejectedWithReason) {
  JobSpec base;
  std::string j = base.to_json();
  j.replace(j.find("\"1.0\""), 5, "\"2.0\"");
  JobSpec out;
  std::string err;
  EXPECT_FALSE(jobspec_from_json(j, out, &err));
  EXPECT_NE(err.find("schema"), std::string::npos) << err;
}

TEST(JobSchema, MalformedSpecJsonIsRejectedNotMisread) {
  JobSpec out;
  EXPECT_FALSE(jobspec_from_json("not json at all", out));
  EXPECT_FALSE(jobspec_from_json("{\"workload\":", out));
  EXPECT_FALSE(jobspec_from_json("", out));
}

TEST(JobSchema, JobResultRoundTrips) {
  JobSpec spec;
  spec.workload = "msum";
  spec.n = 1 << 10;
  spec.opt.backend = Backend::kSimPws;
  spec.opt.label = "rt";
  JobResult jr = ro::testing::engine().submit(spec);
  ASSERT_TRUE(jr.ok()) << jr.error;
  JobResult back;
  ASSERT_TRUE(jobresult_from_json(jr.to_json(), back));
  EXPECT_EQ(back.to_json(), jr.to_json());
}

TEST(JobSchema, BatchReportRoundTrips) {
  JobSpec spec;
  spec.kind = JobKind::kBatch;
  spec.workload = "msum";
  spec.n = 1 << 10;
  spec.shards = 2;
  spec.opt.backend = Backend::kSimPws;
  spec.opt.label = "rt-batch";
  spec.opt.capacity_shared = true;
  JobResult jr = ro::testing::engine().submit(spec);
  ASSERT_TRUE(jr.ok()) << jr.error;
  ASSERT_TRUE(jr.has_batch);
  BatchReport back;
  ASSERT_TRUE(batch_from_json(jr.batch.to_json(), back));
  EXPECT_EQ(back.to_json(), jr.batch.to_json());
  EXPECT_TRUE(back.capacity_shared);
  // Older writers emitted the retired "pipelined" flag; it is skipped.
  std::string old = jr.batch.to_json();
  old.insert(old.find(",\"capacity_shared\""), ",\"pipelined\":1");
  ASSERT_TRUE(batch_from_json(old, back));
  EXPECT_EQ(back.to_json(), jr.batch.to_json());
}

// ---- the wire protocol ----

class ServeSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    serve::Server::Options opt;
    opt.socket_path = temp_socket(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    opt.admission.max_inflight = 2;
    server_ = std::make_unique<serve::Server>(opt);
    std::string err;
    ASSERT_TRUE(server_->start(&err)) << err;
  }
  void TearDown() override { server_->stop(); }

  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServeSocketTest, GarbageLinesGetErrorResultsAndTheConnectionLives) {
  serve::Client c;
  ASSERT_TRUE(c.connect(server_->socket_path()));
  const char* garbage[] = {
      "this is not json",
      "{\"op\":\"submit\"}",                       // no spec
      "{\"op\":\"submit\",\"spec\":\"nope\"}",     // spec not an object
      "{\"op\":\"launch-missiles\"}",              // unknown op
      "{\"op\":\"submit\",\"spec\":{\"workload\":\"no-such\"}}",
      "{\"op\":\"submit\",\"spec\":{\"schema_version\":\"9.0\"}}",
      "{\"op\":\"submit\",\"spec\":{\"workload\":\"msum\",\"p\":\"0\"}}",
  };
  for (const char* line : garbage) {
    std::string reply;
    ASSERT_TRUE(c.exchange(line, reply)) << line;
    JobResult jr;
    ASSERT_TRUE(jobresult_from_json(reply, jr)) << reply;
    EXPECT_FALSE(jr.ok()) << line;
    EXPECT_FALSE(jr.error.empty()) << line;
  }
  // After all that abuse, the same connection still serves a real job.
  JobSpec spec;
  spec.workload = "msum";
  spec.n = 1 << 10;
  spec.opt.backend = Backend::kSimPws;
  JobResult jr;
  ASSERT_TRUE(c.submit(spec, jr));
  EXPECT_TRUE(jr.ok()) << jr.error;
  EXPECT_TRUE(jr.report.has_sim);
}

TEST_F(ServeSocketTest, OversizedLineEndsOnlyThatConnection) {
  serve::Client abuser;
  ASSERT_TRUE(abuser.connect(server_->socket_path()));
  std::string huge(serve::kMaxLineBytes + 2, 'x');  // no newline anywhere
  std::string reply;
  EXPECT_FALSE(abuser.exchange(huge, reply));  // server hangs up
  serve::Client c;  // a fresh connection is unaffected
  ASSERT_TRUE(c.connect(server_->socket_path()));
  serve::Admission::Stats st;
  EXPECT_TRUE(c.stats(st));
}

TEST_F(ServeSocketTest, ServedMetricsMatchOneShotSubmit) {
  JobSpec spec;
  spec.tenant = "parity";
  spec.workload = "sort";
  spec.n = 1 << 11;
  spec.opt.backend = Backend::kSimPws;
  spec.opt.label = "parity";
  const JobResult golden = ro::testing::engine().submit(spec);
  ASSERT_TRUE(golden.ok()) << golden.error;
  serve::Client c;
  ASSERT_TRUE(c.connect(server_->socket_path()));
  JobResult jr;
  ASSERT_TRUE(c.submit(spec, jr));
  ASSERT_TRUE(jr.ok()) << jr.error;
  EXPECT_EQ(jr.report.sim.makespan, golden.report.sim.makespan);
  EXPECT_EQ(jr.report.sim.cache_misses(), golden.report.sim.cache_misses());
  EXPECT_EQ(jr.report.sim.block_misses(), golden.report.sim.block_misses());
  EXPECT_EQ(jr.report.sim.steals(), golden.report.sim.steals());
  EXPECT_EQ(jr.report.q_seq, golden.report.q_seq);
}

TEST_F(ServeSocketTest, ShutdownOpStopsTheServer) {
  serve::Client c;
  ASSERT_TRUE(c.connect(server_->socket_path()));
  EXPECT_TRUE(c.shutdown());
  // The accept loop is down: poll until new connections fail (the listener
  // teardown races the ack by design — stop() does the final join).
  bool refused = false;
  for (int i = 0; i < 100 && !refused; ++i) {
    serve::Client probe;
    refused = !probe.connect(server_->socket_path());
    if (!refused)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(refused);
  EXPECT_FALSE(server_->running());
}

TEST_F(ServeSocketTest, StopReturnsWhileClientsSitIdleOnOpenConnections) {
  // The high-severity hang: a client that keeps its connection open but
  // sends nothing leaves the serving thread blocked in read().  stop()
  // must shut those fds down and join promptly, not wait forever.
  serve::Client idle1, idle2;
  ASSERT_TRUE(idle1.connect(server_->socket_path()));
  ASSERT_TRUE(idle2.connect(server_->socket_path()));
  serve::Admission::Stats st;
  ASSERT_TRUE(idle1.stats(st));  // both connections are live and served...
  ASSERT_TRUE(idle2.stats(st));  // ...and now sit idle in the server read
  server_->stop();
  EXPECT_FALSE(server_->running());
}

TEST_F(ServeSocketTest, ShutdownOpWorksWhileAnotherClientIsIdle) {
  serve::Client idle;
  ASSERT_TRUE(idle.connect(server_->socket_path()));
  serve::Admission::Stats st;
  ASSERT_TRUE(idle.stats(st));
  serve::Client c;
  ASSERT_TRUE(c.connect(server_->socket_path()));
  EXPECT_TRUE(c.shutdown());
  server_->stop();  // joins the idle connection without draining anything
  EXPECT_FALSE(server_->running());
}

TEST_F(ServeSocketTest, FinishedConnectionsAreReapedNotAccumulated) {
  for (int i = 0; i < 8; ++i) {
    serve::Client c;
    ASSERT_TRUE(c.connect(server_->socket_path()));
    serve::Admission::Stats st;
    ASSERT_TRUE(c.stats(st));
  }  // each client hangs up here
  // New accepts prune finished connections, so the tracked set shrinks
  // back to roughly the live probes instead of growing per connection
  // served.  Disconnect detection is asynchronous: poll.
  size_t open = 1000;
  for (int i = 0; i < 200 && open > 2; ++i) {
    serve::Client probe;
    ASSERT_TRUE(probe.connect(server_->socket_path()));
    serve::Admission::Stats st;
    ASSERT_TRUE(probe.stats(st));
    probe.close();
    open = server_->open_connections();
    if (open > 2) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(open, 2u);
}

TEST(ServeBudget, OverBudgetTenantGetsDeterministicRejectionLine) {
  serve::Server::Options opt;
  opt.socket_path = temp_socket("budget");
  opt.admission.tenant_budget_bytes = 1024;  // way below any real job
  serve::Server server(opt);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  JobSpec spec;
  spec.tenant = "greedy";
  spec.workload = "msum";
  spec.n = 1 << 14;
  spec.opt.backend = Backend::kSimPws;
  serve::Client c;
  ASSERT_TRUE(c.connect(server.socket_path()));
  for (int i = 0; i < 2; ++i) {  // the same ask, the same answer
    JobResult jr;
    ASSERT_TRUE(c.submit(spec, jr));
    EXPECT_EQ(jr.status, JobStatus::kRejected);
    EXPECT_NE(jr.error.find("budget"), std::string::npos) << jr.error;
    EXPECT_EQ(jr.queue_ms, 0);  // rejected before any waiting
  }
  const serve::Admission::Stats st = server.admission_stats();
  EXPECT_EQ(st.rejected, 2u);
  EXPECT_EQ(st.admitted, 0u);
  server.stop();
}

}  // namespace
}  // namespace ro
