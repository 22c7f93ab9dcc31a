#include "ro/alg/spms.h"

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

}  // namespace ro::alg
