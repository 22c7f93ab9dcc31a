// Span recorder, result tally and the order statistics the metrics use.
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench.h"
#include "ro/util/flatjson.h"

namespace perfbench {

int64_t Tracer::begin(const std::string& name, uint64_t job, int64_t parent) {
  const double now = ms_between(t0_, Clock::now());
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(Span{name, now, -1, parent, job});
  return static_cast<int64_t>(spans_.size()) - 1;
}

double Tracer::end(int64_t id) {
  const double now = ms_between(t0_, Clock::now());
  std::lock_guard<std::mutex> lk(mu_);
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ms = now;
  return s.end_ms - s.start_ms;
}

std::map<uint64_t, double> Tracer::self_ms_by_job(
    const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ms >= 0)
      child[static_cast<size_t>(s.parent)] += s.end_ms - s.start_ms;
  }
  std::map<uint64_t, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name || s.end_ms < 0) continue;
    out[s.job] += s.end_ms - s.start_ms - child[i];
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream f(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  ",\"start_ms\":%.6f,\"end_ms\":%.6f,\"parent\":%lld,"
                  "\"job\":%llu}\n",
                  s.start_ms, s.end_ms, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.job));
    f << "{\"id\":" << i << ",\"name\":\"" << ro::json::escape(s.name) << "\""
      << buf;
  }
  return static_cast<bool>(f);
}

void Result::fail(const std::string& why) {
  ++failed;
  if (notes.size() < 50) notes.push_back("FAILED: " + why);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t rank = n > 10 ? n - 11 : n - 1;
  t.value = v[rank];
  t.percentile = n > 10 ? 100.0 * static_cast<double>(n - 10) /
                              static_cast<double>(n)
                        : 100.0;
  return t;
}

}  // namespace perfbench
