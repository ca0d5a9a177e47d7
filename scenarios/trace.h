// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around its calls into
// each layer's public functions. Each span has a name ("<layer>.<what>"),
// start and end, the span that caused it, and the id of the request it
// belongs to. They stay in memory until the run ends and are then written
// out as JSON; a layer's self time is its spans' duration minus the part
// covered by their child spans.
#ifndef SCENARIOS_TRACE_H_
#define SCENARIOS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace scenarios {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  // Records one span and returns its id, which child spans name as parent.
  // `name` must be a string literal (it is stored, not copied).
  int Add(const char* name, Clock::time_point start, Clock::time_point end,
          int64_t request, int parent = -1);

  struct NameTotals {
    std::string name;
    size_t spans = 0;
    double total_s = 0;
    double self_s = 0;
  };
  // Per span name: count, total time and self time, by descending self time.
  std::vector<NameTotals> SelfTimes() const;

  size_t size() const { return spans_.size(); }

  // Writes {"spans": [{"name", "start_us", "end_us", "parent", "request"}]}.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    int64_t request;
  };
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace scenarios

#endif  // SCENARIOS_TRACE_H_
