#include "oracle.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "bottomup/rules.h"
#include "bottomup/seminaive.h"
#include "wfs/wfs.h"

namespace scenarios {
namespace {

namespace dl = xsb::datalog;

// Evaluates one oracle family over `facts` plus the seed facts of the
// queries in `ops`, and fills in their expected results.
bool EvaluateGroup(const OracleFamily& family,
                   const std::set<std::string>& facts,
                   const std::vector<const Op*>& ops,
                   std::vector<Expected*>* results, std::string* error) {
  std::string text = family.rules;
  std::set<std::string> seeds;
  for (const std::string& fact : facts) text += fact + ".\n";
  for (const Op* op : ops) {
    if (!op->oracle_seed.empty() && seeds.insert(op->oracle_seed).second) {
      text += op->oracle_seed + ".\n";
    }
  }
  dl::DatalogProgram program;
  xsb::Status parsed = dl::ParseDatalog(text, &program);
  if (!parsed.ok()) {
    *error = "oracle program: " + parsed.ToString();
    return false;
  }
  std::vector<dl::Literal> queries;
  for (const Op* op : ops) {
    xsb::Result<dl::Literal> query = dl::ParseQuery(op->oracle_query, &program);
    if (!query.ok()) {
      *error = "oracle query " + op->oracle_query + ": " +
               query.status().ToString();
      return false;
    }
    queries.push_back(query.value());
  }

  if (family.well_founded) {
    xsb::Result<xsb::wfs::WellFoundedModel> model =
        xsb::wfs::ComputeWellFounded(&program);
    if (!model.ok()) {
      *error = "oracle WFS: " + model.status().ToString();
      return false;
    }
    for (size_t i = 0; i < ops.size(); ++i) {
      dl::Tuple tuple;
      for (const dl::Arg& arg : queries[i].args) {
        if (arg.is_var) {
          *error = "WFS oracle queries must be ground: " + ops[i]->oracle_query;
          return false;
        }
        tuple.push_back(arg.id);
      }
      xsb::wfs::Truth truth = model.value().TruthOf(queries[i].pred, tuple);
      if (truth == xsb::wfs::Truth::kUndefined) {
        *error = "oracle: " + ops[i]->oracle_query + " is undefined";
        return false;
      }
      (*results)[i]->count = truth == xsb::wfs::Truth::kTrue ? 1 : 0;
    }
    return true;
  }

  dl::Evaluation evaluation(&program);
  xsb::Status ran = evaluation.Run();
  if (!ran.ok()) {
    *error = "oracle evaluation: " + ran.ToString();
    return false;
  }
  // One scan per queried relation answers every query of the group: the
  // queries bind the same argument positions, so tuples are bucketed by the
  // values at those positions.
  std::map<dl::PredId, std::map<dl::Tuple, std::vector<size_t>>> wanted;
  for (size_t i = 0; i < ops.size(); ++i) {
    dl::Tuple key;
    for (const dl::Arg& arg : queries[i].args) {
      if (!arg.is_var) key.push_back(arg.id);
    }
    wanted[queries[i].pred][key].push_back(i);
  }
  for (const auto& [pred, by_key] : wanted) {
    const std::vector<dl::Arg>& pattern =
        queries[by_key.begin()->second[0]].args;
    const dl::Relation& relation = evaluation.relation(pred);
    for (uint32_t row = 0; row < relation.tuples().size(); ++row) {
      if (relation.IsDead(row)) continue;
      const dl::Tuple& tuple = relation.tuples()[row];
      dl::Tuple key;
      int column = -1;
      for (size_t a = 0; a < pattern.size(); ++a) {
        if (pattern[a].is_var) {
          column = static_cast<int>(a);
        } else {
          key.push_back(tuple[a]);
        }
      }
      auto it = by_key.find(key);
      if (it == by_key.end()) continue;
      for (size_t i : it->second) {
        Expected& expected = *(*results)[i];
        if (column >= 0) {
          expected.answers.push_back(program.consts().ToString(tuple[column]));
        }
        ++expected.count;
      }
    }
  }
  for (Expected* expected : *results) {
    std::sort(expected->answers.begin(), expected->answers.end());
  }
  return true;
}

// Walks one cycle of traffic, evaluating each family once per EDB version
// (the stretch between two updates of that family) for all the queries
// asked of that version.
bool ComputeInProcess(const Workload& w, std::vector<Expected>* out,
                      std::string* error) {
  out->assign(w.ops.size(), Expected());
  std::vector<std::set<std::string>> facts;
  for (const OracleFamily& family : w.families) {
    facts.emplace_back(family.facts.begin(), family.facts.end());
  }
  std::vector<std::vector<size_t>> pending(w.families.size());
  auto flush = [&](size_t f) {
    if (pending[f].empty()) return true;
    std::vector<const Op*> ops;
    std::vector<Expected*> results;
    for (size_t i : pending[f]) {
      ops.push_back(&w.ops[i]);
      results.push_back(&(*out)[i]);
    }
    pending[f].clear();
    return EvaluateGroup(w.families[f], facts[f], ops, &results, error);
  };
  for (size_t i = 0; i < w.ops.size(); ++i) {
    const Op& op = w.ops[i];
    if (op.family < 0) {
      (*out)[i] = op.closed_form;
    } else if (!op.update) {
      pending[op.family].push_back(i);
    } else {
      if (!flush(op.family)) return false;
      bool applies = op.assert_fact ? facts[op.family].insert(op.fact).second
                                    : facts[op.family].erase(op.fact) == 1;
      if (!applies) {
        *error = "traffic op " + std::to_string(i) + ", " + op.goal +
                 ", does not apply to the EDB it meets";
        return false;
      }
    }
  }
  for (size_t f = 0; f < pending.size(); ++f) {
    if (!flush(f)) return false;
  }
  return true;
}

// One line per op: "<count> <k> <answer>*k", or "! <message>" on failure.
std::string Serialize(const std::vector<Expected>& expected) {
  std::string text;
  for (const Expected& e : expected) {
    text += std::to_string(e.count) + " " + std::to_string(e.answers.size());
    for (const std::string& a : e.answers) text += " " + a;
    text += "\n";
  }
  return text;
}

bool Deserialize(const std::string& text, size_t ops,
                 std::vector<Expected>* out, std::string* error) {
  if (text.rfind("! ", 0) == 0) {
    *error = text.substr(2);
    return false;
  }
  std::istringstream in(text);
  out->assign(ops, Expected());
  for (Expected& e : *out) {
    size_t k = 0;
    if (!(in >> e.count >> k)) {
      *error = "oracle process returned a truncated result";
      return false;
    }
    e.answers.resize(k);
    for (std::string& a : e.answers) in >> a;
  }
  return true;
}

bool WriteAll(int fd, const std::string& text) {
  size_t done = 0;
  while (done < text.size()) {
    ssize_t n = write(fd, text.data() + done, text.size() - done);
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

bool ComputeExpected(const Workload& w, std::vector<Expected>* out,
                     std::string* error) {
  int fds[2];
  if (pipe(fds) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::fflush(nullptr);
  pid_t pid = fork();
  if (pid < 0) {
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    std::vector<Expected> expected;
    std::string message;
    bool ok = ComputeInProcess(w, &expected, &message);
    bool written = WriteAll(fds[1], ok ? Serialize(expected) : "! " + message);
    close(fds[1]);
    _exit(written ? 0 : 1);
  }
  close(fds[1]);
  std::string text;
  char buffer[1 << 16];
  ssize_t n;
  while ((n = read(fds[0], buffer, sizeof(buffer))) != 0) {
    if (n > 0) {
      text.append(buffer, static_cast<size_t>(n));
    } else if (errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "oracle process failed";
    return false;
  }
  return Deserialize(text, w.ops.size(), out, error);
}

}  // namespace scenarios
