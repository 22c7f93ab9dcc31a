#include "ro/engine/job.h"

#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "ro/engine/fields.h"
#include "ro/util/flatjson.h"

namespace ro {

using json::kv_raw;
using json::kv_str;

std::string job_schema_version() {
  return std::to_string(kJobSchemaMajor) + "." + std::to_string(kJobSchemaMinor);
}

const char* job_kind_name(JobKind k) {
  switch (k) {
    case JobKind::kRun: return "run";
    case JobKind::kBatch: return "batch";
    case JobKind::kDiagnose: return "diagnose";
  }
  return "?";
}

bool parse_job_kind(const std::string& name, JobKind& out) {
  if (name == "run") out = JobKind::kRun;
  else if (name == "batch") out = JobKind::kBatch;
  else if (name == "diagnose") out = JobKind::kDiagnose;
  else return false;
  return true;
}

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kRejected: return "rejected";
    case JobStatus::kError: return "error";
  }
  return "?";
}

bool parse_job_status(const std::string& name, JobStatus& out) {
  if (name == "ok") out = JobStatus::kOk;
  else if (name == "rejected") out = JobStatus::kRejected;
  else if (name == "error") out = JobStatus::kError;
  else return false;
  return true;
}

namespace {

/// Parses "major.minor".  Returns false on anything else.
bool parse_version(const std::string& v, uint32_t& major, uint32_t& minor) {
  char* end = nullptr;
  const unsigned long maj = std::strtoul(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '.') return false;
  const char* rest = end + 1;
  const unsigned long min = std::strtoul(rest, &end, 10);
  if (end == rest || *end != '\0') return false;
  major = static_cast<uint32_t>(maj);
  minor = static_cast<uint32_t>(min);
  return true;
}

#define ROW(key, member, ...) \
  {{key, __VA_ARGS__}, [](JobResult& r) -> FieldRef { return &r.member; }}

// The result's scalars; the nested report objects follow them.
const Field<JobResult> kResultFields[] = {
    ROW("job_id", job_id),
    ROW("tenant", tenant),
    ROW("tag", tag, 0, FieldInfo::kAny, FieldRule::kOmitEmpty),
    ROW("kind", kind),
    ROW("status", status),
    ROW("error", error, 0, FieldInfo::kAny, FieldRule::kOmitEmpty),
    ROW("queue_ms", queue_ms),
    ROW("exec_ms", exec_ms),
};
#undef ROW

}  // namespace

bool check_schema_version(const std::string& v, std::string* error) {
  uint32_t major = 0, minor = 0;
  std::string why;
  if (!parse_version(v, major, minor)) {
    why = "unparsable version \"" + v + "\"";
  } else if (major > kJobSchemaMajor) {
    why = "version " + v + " is newer than supported " + job_schema_version();
  } else {
    return true;
  }
  if (error != nullptr) *error = why;
  return false;
}

std::string JobSpec::to_json() const {
  std::string s = "{";
  write_fields(s, jobspec_fields(), *this);
  return s + "}";
}

bool jobspec_from_json(const std::string& text, JobSpec& out,
                       std::string* error) {
  std::vector<std::pair<std::string, std::string>> kvs;
  if (!json::scan_object(text, kvs)) {
    if (error != nullptr) *error = "malformed JSON object";
    return false;
  }
  // Version first: a newer major may have changed the meaning of any key,
  // so nothing else is interpreted until the version is accepted.
  const auto version = jobspec_fields().first(1);  // schema_version
  JobSpec spec;
  if (!read_fields(kvs, version, spec, error) ||
      !check_fields(version, spec, error) ||
      !read_fields(kvs, jobspec_fields(), spec, error)) {
    return false;
  }
  if (spec.schema_version.empty()) spec.schema_version = job_schema_version();
  out = std::move(spec);
  return true;
}

std::string JobResult::to_json() const {
  std::string s = "{";
  kv_str(s, "schema_version", job_schema_version());
  write_fields<JobResult>(s, kResultFields, *this);
  if (status == JobStatus::kOk) {
    if (kind == JobKind::kRun) kv_raw(s, "report", report.to_json());
    if (has_batch) kv_raw(s, "batch", batch.to_json());
    if (has_doctor) kv_raw(s, "doctor", doctor.to_json());
  }
  s += "}";
  return s;
}

bool jobresult_from_json(const std::string& text, JobResult& out) {
  std::vector<std::pair<std::string, std::string>> kvs;
  if (!json::scan_object(text, kvs)) return false;
  out = JobResult{};
  if (!read_fields<JobResult>(kvs, kResultFields, out, nullptr)) return false;
  for (const auto& [k, v] : kvs) {
    if (k == "report") {
      if (!report_from_json(v, out.report)) return false;
    } else if (k == "batch") {
      out.has_batch = true;
      if (!batch_from_json(v, out.batch)) return false;
    } else if (k == "doctor") {
      out.has_doctor = true;
      if (!doctor::doctor_report_from_json(v, out.doctor)) return false;
    }
  }
  return true;
}

}  // namespace ro
