// Field tables: the JobSpec wire schema, declared once.  One row per JSON
// key holds the key, a typed pointer to its member (the pointer's type is
// the wire type), the legal range and a rule; defaults are the struct's
// own.  The codec (JobSpec::to_json, jobspec_from_json), Engine::submit's
// validation and the `ro-serve submit` / bench `--spms-*` flags all walk
// these rows.  docs/serve.md lists them for readers.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "ro/engine/job.h"

namespace ro {

// Caps keeping a legal value addressable by the layer that consumes it,
// each above every value the repo's benches, tests and baselines use: n;
// M, M2 and B (p·M/B <= 2^26 LRU slots); align_words (2^16 aligned
// allocations fit a 2^40-word shard); segment_tasks (one open segment's
// reserve).
inline constexpr uint64_t kMaxJobN = uint64_t{1} << 24;
inline constexpr uint64_t kMaxCacheWords = uint64_t{1} << 20;
inline constexpr uint64_t kMaxAlignWords = uint64_t{1} << 24;
inline constexpr uint64_t kMaxSegmentTasks = uint64_t{1} << 24;

using FieldRef = std::variant<uint32_t*, uint64_t*, bool*, double*,
                              std::string*, JobKind*, JobStatus*, Backend*,
                              std::optional<alg::SpmsTuning>*>;

enum class FieldRule : uint8_t {
  kNone,
  kOmitEmpty,  // a string not written when empty
  kPow2,       // an integer that must be a power of two
  kVersion,    // a schema version (check_schema_version); "" = current
};

struct FieldInfo {
  static constexpr double kAny = std::numeric_limits<double>::infinity();
  const char* key;
  double lo = 0, hi = kAny;  // inclusive; the member's type bounds it too
  FieldRule rule = FieldRule::kNone;
  const char* flag = nullptr;  // CLI flag; nullptr = key with '_' -> '-'
};

template <class S>
struct Field : FieldInfo {
  FieldRef (*at)(S&);
};

std::span<const Field<JobSpec>> jobspec_fields();
std::span<const Field<alg::SpmsTuning>> spms_fields();

/// The row's CLI flag, without the leading "--".
std::string field_flag(const FieldInfo& f);

/// Appends `"key":value` to an open object (nothing for an empty kOmitEmpty
/// string or an unset tuning); doubles in their shortest exact form.
void write_field(std::string& s, const FieldInfo& f, const FieldRef& r);

/// Decodes `v`, which must be entirely one value of the member's type.
/// Failures here and in check_field leave a reason naming the key.
bool read_field(const FieldInfo& f, const std::string& v, const FieldRef& r,
                std::string* error);

bool check_field(const FieldInfo& f, const FieldRef& r, std::string* error);

// `at` only reads through a const object's rows.
template <class S>
void write_fields(std::string& s, std::span<const Field<S>> rows,
                  const S& obj) {
  for (const auto& f : rows) write_field(s, f, f.at(const_cast<S&>(obj)));
}

/// Unknown keys are skipped.
template <class S>
bool read_fields(const std::vector<std::pair<std::string, std::string>>& kvs,
                 std::span<const Field<S>> rows, S& obj, std::string* error) {
  for (const auto& [k, v] : kvs) {
    for (const auto& f : rows) {
      if (k == f.key && !read_field(f, v, f.at(obj), error)) return false;
    }
  }
  return true;
}

template <class S>
bool check_fields(std::span<const Field<S>> rows, const S& obj,
                  std::string* error) {
  for (const auto& f : rows) {
    if (!check_field(f, f.at(const_cast<S&>(obj)), error)) return false;
  }
  return true;
}

}  // namespace ro
