#include "ro/alg/spms.h"

#include "ro/engine/fields.h"

namespace ro::alg {

bool parse_sort_kind(const std::string& name, SortKind& out) {
  if (name == "msort" || name == "hbp") {
    out = SortKind::kMsort;
  } else if (name == "spms") {
    out = SortKind::kSpms;
  } else {
    return false;
  }
  return true;
}

const char* sort_kind_name(SortKind k) {
  switch (k) {
    case SortKind::kMsort: return "msort";
    case SortKind::kSpms: return "spms";
  }
  return "?";
}

namespace {
// Process-wide default tuning.  Reads are lock-free (the sort takes a
// const& snapshot at entry); set_spms_tuning documents the install-before-
// concurrent-runs contract instead of paying for synchronization on the
// hot path.
SpmsTuning g_spms_tuning;
}  // namespace

const SpmsTuning& spms_tuning() { return g_spms_tuning; }

void set_spms_tuning(const SpmsTuning& t) {
  // The minimums live in the SPMS field table (engine/fields.h).
  std::string why;
  RO_CHECK_MSG(check_fields(spms_fields(), t, &why), why.c_str());
  g_spms_tuning = t;
}

}  // namespace ro::alg
