#include "ro/engine/fields.h"

#include <charconv>
#include <type_traits>

#include "ro/mem/vspace.h"
#include "ro/rt/pool.h"
#include "ro/util/bits.h"
#include "ro/util/flatjson.h"

namespace ro {
namespace {

using Rule = FieldRule;
constexpr double kAny = FieldInfo::kAny;

// key, member, then optionally lo, hi, rule.
#define ROW(key, path, ...) \
  {{key, __VA_ARGS__}, [](JobSpec& s) -> FieldRef { return &s.path; }}
const Field<JobSpec> kJobFields[] = {
    ROW("schema_version", schema_version, 0, kAny, Rule::kVersion),
    ROW("tenant", tenant),
    ROW("tag", tag, 0, kAny, Rule::kOmitEmpty),
    ROW("kind", kind),
    ROW("workload", workload),
    ROW("n", n, 0, kMaxJobN),
    ROW("seed", seed),
    ROW("shards", shards, 0, kMaxShards),
    ROW("backend", opt.backend),
    ROW("label", opt.label, 0, kAny, Rule::kOmitEmpty),
    ROW("p", opt.sim.p, 1, 64),
    ROW("M", opt.sim.M, 1, kMaxCacheWords),
    ROW("B", opt.sim.B, 1, kMaxCacheWords),
    ROW("miss_latency", opt.sim.miss_latency),
    ROW("steal_latency", opt.sim.steal_latency),
    ROW("sim_seed", opt.sim.seed),  // "seed" is the workload input salt
    ROW("M2", opt.sim.M2, 0, kMaxCacheWords),
    ROW("l2_latency", opt.sim.l2_latency),
    ROW("write_hold", opt.sim.write_hold),
    ROW("replay_threads", opt.sim.replay_threads, 0, rt::kMaxPoolThreads),
    ROW("padded", opt.padded),
    ROW("align_words", opt.align_words, 1, kMaxAlignWords, Rule::kPow2),
    ROW("seq_baseline", opt.seq_baseline),
    ROW("capacity_shared", opt.capacity_shared),
    ROW("segment_tasks", opt.trace.segment_tasks, 0, kMaxSegmentTasks),
    ROW("max_resident_segments", opt.trace.max_resident_segments),
    ROW("threads", opt.threads, 0, rt::kMaxPoolThreads),
    ROW("serial_below", opt.serial_below),
    ROW("numa_groups", opt.numa_groups),
    ROW("numa_escape", opt.numa_escape, 0, 1),
    ROW("numa_pin", opt.numa_pin),
    ROW("doc_max_lines", doc.max_lines),
    ROW("doc_min_false_events", doc.min_false_events),
    ROW("spms", opt.spms),
};
#undef ROW

// The member (its name is the key), its minimum, its bench flag.
#define TUNE(member, min, flag)             \
  {{#member, min, kAny, Rule::kNone, flag}, \
   [](alg::SpmsTuning& t) -> FieldRef { return &t.member; }}
const Field<alg::SpmsTuning> kSpmsFields[] = {
    TUNE(merge_base, 2, "spms-merge-base"),
    TUNE(merge2_min, 2, "spms-merge2-min"),
    TUNE(stride_mul, 1, "spms-stride-mul"),
    TUNE(seq_cap_div, 1, "spms-seq-cap-div"),
    TUNE(stride_per_seq, 1, "spms-stride-per-seq"),
    TUNE(multisearch_leaf, 2, "spms-ms-leaf"),
    TUNE(sample_sort_seq, 0, "spms-sample-seq"),
    TUNE(machinery_min, 0, "spms-machinery-min"),
    TUNE(interleave, 0, "spms-interleave"),
    TUNE(kernels, 0, "spms-kernels"),
};
#undef TUNE

const char* name_of(JobKind k) { return job_kind_name(k); }
const char* name_of(JobStatus s) { return job_status_name(s); }
const char* name_of(Backend b) { return backend_name(b); }
bool parse(const std::string& v, JobKind& k) { return parse_job_kind(v, k); }
bool parse(const std::string& v, JobStatus& s) {
  return parse_job_status(v, s);
}
bool parse(const std::string& v, Backend& b) { return parse_backend(v, b); }

/// Shortest text that reads back as exactly `x`.
template <class T>
std::string num(T x) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, x).ptr);
}

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

/// `"key" why`, or `"key.inner" ...` when `why` names an inner key.
std::string named(const FieldInfo& f, const std::string& why) {
  return "\"" + std::string(f.key) + (why[0] == '"' ? "." + why.substr(1)
                                                    : "\" " + why);
}

}  // namespace

std::span<const Field<JobSpec>> jobspec_fields() { return kJobFields; }
std::span<const Field<alg::SpmsTuning>> spms_fields() { return kSpmsFields; }

std::string field_flag(const FieldInfo& f) {
  std::string s = f.flag != nullptr ? f.flag : f.key;
  for (char& c : s) c = c == '_' ? '-' : c;
  return s;
}

void write_field(std::string& s, const FieldInfo& f, const FieldRef& r) {
  std::visit(
      [&](auto* p) {
        using T = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_arithmetic_v<T>) {
          json::append_kv(s, f.key, num(+*p), false);  // bools as 0/1
        } else if constexpr (std::is_same_v<T, std::string>) {
          if (f.rule == Rule::kVersion && p->empty())
            json::kv_str(s, f.key, job_schema_version());
          else if (f.rule != Rule::kOmitEmpty || !p->empty())
            json::kv_str(s, f.key, *p);
        } else if constexpr (std::is_enum_v<T>) {
          json::kv_str(s, f.key, name_of(*p));
        } else if (p->has_value()) {  // the nested tuning
          std::string obj = "{";
          write_fields(obj, spms_fields(), **p);
          json::kv_raw(s, f.key, obj + "}");
        }
      },
      r);
}

bool read_field(const FieldInfo& f, const std::string& v, const FieldRef& r,
                std::string* error) {
  return std::visit(
      [&](auto* p) {
        using T = std::remove_pointer_t<decltype(p)>;
        const auto bad = [&](const char* type) {
          return fail(error, named(f, std::string("must be ") + type +
                                          ", got \"" + v + "\""));
        };
        if constexpr (std::is_same_v<T, bool>) {
          if (v != "0" && v != "1") return bad("0 or 1");
          *p = v == "1";
        } else if constexpr (std::is_arithmetic_v<T>) {
          // The whole value: no sign on an unsigned, no fraction or
          // exponent on an integer, no trailing text, nothing too large.
          T x{};
          const char* last = v.data() + v.size();
          const auto [end, ec] = std::from_chars(v.data(), last, x);
          if (ec != std::errc() || end != last) {
            return bad(std::is_same_v<T, double> ? "a number"
                       : sizeof(T) == 4         ? "a u32"
                                                : "a u64");
          }
          *p = x;
        } else if constexpr (std::is_same_v<T, std::string>) {
          *p = v;
        } else if constexpr (std::is_enum_v<T>) {
          if (!parse(v, *p)) return bad("a known name");
        } else {  // the nested tuning, over the defaults
          std::vector<std::pair<std::string, std::string>> kvs;
          if (!json::scan_object(v, kvs)) return bad("an object");
          alg::SpmsTuning t;
          std::string why;
          if (!read_fields(kvs, spms_fields(), t, &why))
            return fail(error, named(f, why));
          *p = t;
        }
        return true;
      },
      r);
}

bool check_field(const FieldInfo& f, const FieldRef& r, std::string* error) {
  return std::visit(
      [&](auto* p) {
        using T = std::remove_pointer_t<decltype(p)>;
        std::string why;
        if constexpr (std::is_arithmetic_v<T>) {
          const double x = static_cast<double>(*p);
          if (x >= f.lo && x <= f.hi &&  // false for NaN too
              (f.rule != Rule::kPow2 || is_pow2(static_cast<uint64_t>(*p))))
            return true;
          why = std::string(f.rule == Rule::kPow2 ? "a power of two " : "") +
                (f.hi == kAny ? ">= " + num(f.lo)
                              : "in [" + num(f.lo) + ", " + num(f.hi) + "]");
          return fail(error, named(f, "must be " + why));
        } else if constexpr (std::is_same_v<T, std::string>) {
          if (f.rule == Rule::kVersion && !p->empty() &&
              !check_schema_version(*p, &why))
            return fail(error, named(f, why));
        } else if constexpr (!std::is_enum_v<T>) {  // the nested tuning
          if (p->has_value() && !check_fields(spms_fields(), **p, &why))
            return fail(error, named(f, why));
        }
        return true;
      },
      r);
}

}  // namespace ro
