// Seeded workload generators for the scenario benchmark.
//
// A workload is the text of a program (the only thing the engine under test
// is given, besides the goals) plus one cycle of traffic: queries and
// assert/retract updates, replayed in order and from the start again until
// the measured time is up. The same seed always yields the same text and the
// same traffic. Each workload also carries what the oracle needs to compute
// the expected answers independently (oracle.h) and what the driver needs to
// classify each query as cold or warm by construction.
#ifndef SCENARIOS_WORKLOADS_H_
#define SCENARIOS_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace scenarios {

// Expected result of one query. `answers` (sorted renderings of the query's
// single output variable) is empty when only the count is known or the goal
// is ground.
struct Expected {
  size_t count = 0;
  std::vector<std::string> answers;
};

// A reference program for the oracle, in the bottom-up engine's datalog
// syntax. Queries select from it; updates add or remove facts.
struct OracleFamily {
  std::string rules;
  std::vector<std::string> facts;  // initial EDB, e.g. "e3(5,7)"
  bool well_founded = false;       // evaluate with WFS (negative recursion)
};

struct Op {
  bool update = false;
  std::string goal;  // the goal handed to the engine
  // Tabled variant the query calls, or -1 for an untabled query. Variants
  // are numbered 0..Workload::variant_family.size()-1.
  int variant = -1;
  // Oracle family the op reads or writes, or -1 when `closed_form` holds
  // the answer.
  int family = -1;
  std::string oracle_query;  // datalog literal with one variable, or ground
  std::string oracle_seed;   // fact that makes the reference rules goal-
                             // directed for this query (may be empty)
  std::string fact;          // update: the datalog fact asserted/retracted
  bool assert_fact = false;
  Expected closed_form;
};

struct Workload {
  std::string name;
  std::string program;
  std::vector<Op> ops;  // one cycle of traffic

  bool service = false;           // drive through QueryService
  int service_workers = 0;        // QueryService worker threads
  int window = 1;                 // requests kept in flight (closed loop)
  bool abolish_each_cycle = false;  // every cycle starts from empty tables

  std::vector<OracleFamily> families;
  std::vector<int> variant_family;  // variant -> oracle family
  // variant -> variants a call of it leaves complete (itself included), as
  // follows from the program's call structure.
  std::vector<std::vector<int>> completes;

  // Sizes, as recorded in the benchmark's description.
  size_t edb_facts = 0;
  size_t program_bytes = 0;
  std::string shape;  // one line: what the EDB and traffic look like
};

// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

// Generates `name` from `seed`. `smoke` selects tiny sizes for the
// benchmark's own smoke test. Returns false on an unknown name.
bool Generate(const std::string& name, uint64_t seed, bool smoke,
              Workload* out);

}  // namespace scenarios

#endif  // SCENARIOS_WORKLOADS_H_
