#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace scenarios {

int Tracer::Add(const char* name, Clock::time_point start,
                Clock::time_point end, int64_t request, int parent) {
  spans_.push_back({name, Ns(start), Ns(end), parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Tracer::NameTotals> Tracer::SelfTimes() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, NameTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    NameTotals& t = totals[spans_[i].name];
    t.name = spans_[i].name;
    int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    ++t.spans;
    t.total_s += duration * 1e-9;
    t.self_s += std::max<int64_t>(0, duration - child_ns[i]) * 1e-9;
  }
  std::vector<NameTotals> out;
  for (auto& [name, t] : totals) out.push_back(t);
  std::sort(out.begin(), out.end(),
            [](const NameTotals& a, const NameTotals& b) {
              return a.self_s > b.self_s;
            });
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"parent\": %d, \"request\": %lld}\n",
                 i == 0 ? "" : ",", s.name, s.start_ns * 1e-3, s.end_ns * 1e-3,
                 s.parent, static_cast<long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace scenarios
