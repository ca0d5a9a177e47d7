// The benchmark's independent oracle. Expected answers come from the
// bottom-up engines (semi-naive evaluation, or the well-founded model where
// the reference program recurses through negation), run over the EDB as it
// stands at each query, or from closed forms the generator computed. The
// engine under test is never consulted.
#ifndef SCENARIOS_ORACLE_H_
#define SCENARIOS_ORACLE_H_

#include <string>
#include <vector>

#include "workloads.h"

namespace scenarios {

// Expected result of every op of `w`'s traffic cycle (updates get an empty
// entry). Runs in a child process, so the oracle's memory never counts
// toward the measured process's peak RSS. Returns false with `error` set if
// the oracle could not be evaluated.
bool ComputeExpected(const Workload& w, std::vector<Expected>* out,
                     std::string* error);

}  // namespace scenarios

#endif  // SCENARIOS_ORACLE_H_
