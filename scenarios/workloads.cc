#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>
#include <utility>

namespace scenarios {
namespace {

// splitmix64: a small, fully specified generator, so the same seed yields
// the same workload on every standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// Puts `v` in a seeded random order (Fisher-Yates).
template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

// Draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s, mapped
// through a seeded permutation so the popular constants are scattered.
class Zipf {
 public:
  Zipf(size_t n, double s, Rng* rng) : perm_(n), cdf_(n) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      perm_[i] = static_cast<int>(i);
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
    Shuffle(&perm_, rng);
  }
  int Draw(Rng* rng) const {
    size_t rank = std::lower_bound(cdf_.begin(), cdf_.end(), rng->Unit()) -
                  cdf_.begin();
    return perm_[std::min(rank, perm_.size() - 1)];
  }

 private:
  std::vector<int> perm_;
  std::vector<double> cdf_;
};

using Edge = std::pair<int, int>;

std::string Fact(const std::string& pred, int a, int b) {
  return pred + "(" + std::to_string(a) + "," + std::to_string(b) + ")";
}

// Random digraph: every node gets `degree` distinct successors other than
// itself. With degree >= 2 almost all nodes fall into one giant SCC.
std::vector<Edge> RandomDigraph(int nodes, int degree, Rng* rng) {
  std::vector<Edge> edges;
  for (int a = 0; a < nodes; ++a) {
    std::set<int> targets;
    while (static_cast<int>(targets.size()) < std::min(degree, nodes - 1)) {
      int b = static_cast<int>(rng->Below(nodes));
      if (b != a) targets.insert(b);
    }
    for (int b : targets) edges.emplace_back(a, b);
  }
  return edges;
}

void AddFacts(const std::string& pred, const std::vector<Edge>& edges,
              Workload* w, OracleFamily* family) {
  for (const auto& [a, b] : edges) {
    std::string fact = Fact(pred, a, b);
    w->program += fact + ".\n";
    if (family != nullptr) family->facts.push_back(fact);
  }
  w->edb_facts += edges.size();
}

Op TabledQuery(const std::string& goal, int variant, int family,
               const std::string& oracle_query,
               const std::string& oracle_seed) {
  Op op;
  op.goal = goal;
  op.variant = variant;
  op.family = family;
  op.oracle_query = oracle_query;
  op.oracle_seed = oracle_seed;
  return op;
}

// --- tc_graph ------------------------------------------------------------

struct TcSizes {
  int nodes, degree;      // edge/2: random digraph
  int tree_depth;         // par/2: complete 4-ary tree
  int games, positions;   // move/2: acyclic games
  int queries;            // per cycle
};

void TcGraph(uint64_t seed, bool smoke, Workload* w) {
  const TcSizes s = smoke ? TcSizes{60, 2, 3, 3, 10, 80}
                          : TcSizes{1500, 3, 5, 60, 40, 400};
  Rng rng(seed);
  w->abolish_each_cycle = true;
  w->program =
      ":- table path/2.\n"
      "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
      "path(X,Y) :- edge(X,Y).\n"
      ":- table sg/2.\n"
      "sg(X,Y) :- par(X,P), child(P,Y).\n"
      "sg(X,Y) :- par(X,XP), sg(XP,YP), child(YP,Y).\n"
      ":- table win/1.\n"
      "win(X) :- move(X,Y), tnot(win(Y)).\n";
  w->families.resize(3);
  w->families[0].rules =
      "reach(S,Y) :- qp(S), edge(S,Y).\n"
      "reach(S,Y) :- reach(S,Z), edge(Z,Y).\n";
  w->families[1].rules =
      "msg(X) :- qs(X).\n"
      "msg(XP) :- msg(X), par(X,XP).\n"
      "sg(X,Y) :- msg(X), par(X,P), par(Y,P).\n"
      "sg(X,Y) :- msg(X), par(X,XP), sg(XP,YP), par(Y,YP).\n";
  w->families[2].rules = "win(X) :- move(X,Y), not win(Y).\n";
  w->families[2].well_founded = true;

  std::vector<Edge> edges = RandomDigraph(s.nodes, s.degree, &rng);
  AddFacts("edge", edges, w, &w->families[0]);

  // Complete 4-ary tree, nodes numbered breadth-first from the root 0.
  int tree_nodes = 0;
  for (int d = 0, width = 1; d <= s.tree_depth; ++d, width *= 4) {
    tree_nodes += width;
  }
  std::vector<Edge> par, child;
  std::vector<int> parent(tree_nodes, -1);
  for (int c = 1; c < tree_nodes; ++c) {
    parent[c] = (c - 1) / 4;
    par.emplace_back(c, parent[c]);
    child.emplace_back(parent[c], c);
  }
  AddFacts("par", par, w, &w->families[1]);
  AddFacts("child", child, w, nullptr);

  // Games: position i of a game moves to up to two positions in (i, i+6].
  int positions = s.games * s.positions;
  std::vector<std::vector<int>> moves(positions);
  std::vector<Edge> move_edges;
  for (int g = 0; g < s.games; ++g) {
    for (int i = 0; i + 1 < s.positions; ++i) {
      int span = std::min(6, s.positions - 1 - i);
      std::set<int> targets;
      while (static_cast<int>(targets.size()) < std::min(2, span)) {
        targets.insert(i + 1 + static_cast<int>(rng.Below(span)));
      }
      for (int t : targets) {
        moves[g * s.positions + i].push_back(g * s.positions + t);
        move_edges.emplace_back(g * s.positions + i, g * s.positions + t);
      }
    }
  }
  AddFacts("move", move_edges, w, &w->families[2]);

  // Variants: path(c,_) for every graph node, sg(c,_) for every tree node,
  // win(p) for every position.
  const int sg_base = s.nodes;
  const int win_base = sg_base + tree_nodes;
  w->variant_family.assign(win_base + positions, 0);
  w->completes.resize(win_base + positions);
  for (int c = 0; c < s.nodes; ++c) w->completes[c] = {c};
  for (int c = 0; c < tree_nodes; ++c) {
    w->variant_family[sg_base + c] = 1;
    // sg(c,_) calls sg(parent,_), and so on up to the root.
    for (int a = c; a >= 0; a = parent[a]) {
      w->completes[sg_base + c].push_back(sg_base + a);
    }
  }
  for (int p = positions - 1; p >= 0; --p) {
    w->variant_family[win_base + p] = 2;
    // win(p) completes win of every position reachable from p.
    std::set<int> reach = {win_base + p};
    for (int q : moves[p]) {
      reach.insert(w->completes[win_base + q].begin(),
                   w->completes[win_base + q].end());
    }
    w->completes[win_base + p].assign(reach.begin(), reach.end());
  }

  Zipf path_draw(s.nodes, 0.5, &rng);
  Zipf sg_draw(tree_nodes - 1, 0.5, &rng);  // the root has no generation
  Zipf win_draw(positions, 0.5, &rng);
  for (int i = 0; i < s.queries; ++i) {
    double kind = rng.Unit();
    if (kind < 0.8) {
      std::string c = std::to_string(path_draw.Draw(&rng));
      w->ops.push_back(TabledQuery("path(" + c + ",Y)", std::stoi(c), 0,
                                   "reach(" + c + ",Y)", "qp(" + c + ")"));
    } else if (kind < 0.9) {
      int c = 1 + sg_draw.Draw(&rng);
      std::string t = std::to_string(c);
      w->ops.push_back(TabledQuery("sg(" + t + ",Y)", sg_base + c, 1,
                                   "sg(" + t + ",Y)", "qs(" + t + ")"));
    } else {
      int p = win_draw.Draw(&rng);
      std::string t = std::to_string(p);
      w->ops.push_back(
          TabledQuery("win(" + t + ")", win_base + p, 2, "win(" + t + ")", ""));
    }
  }
  w->shape = "digraph " + std::to_string(s.nodes) + " nodes x out-degree " +
             std::to_string(s.degree) + ", 4-ary tree depth " +
             std::to_string(s.tree_depth) + ", " + std::to_string(s.games) +
             " games x " + std::to_string(s.positions) +
             " positions; queries 80% path / 10% sg / 10% win, Zipf 0.5";
}

// --- prolog_sld ----------------------------------------------------------

struct SldSizes {
  int employees, depts;
  int nrev_min, nrev_max;
  int queens_min, queens_max;
  int queries;
};

// Renders a list of integers the way the engine writes it.
std::string ListText(const std::vector<int>& items) {
  std::string text = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) text += ",";
    text += std::to_string(items[i]);
  }
  return text + "]";
}

void PrologSld(uint64_t seed, bool smoke, Workload* w) {
  const SldSizes s = smoke ? SldSizes{60, 6, 4, 10, 4, 5, 40}
                           : SldSizes{6000, 200, 30, 90, 5, 6, 1000};
  Rng rng(seed);
  w->program =
      "app([], L, L).\n"
      "app([H|T], L, [H|R]) :- app(T, L, R).\n"
      "nrev([], []).\n"
      "nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n"
      "range(N, N, [N]) :- !.\n"
      "range(M, N, [M|Ns]) :- M < N, M1 is M + 1, range(M1, N, Ns).\n"
      "sel(X, [X|T], T).\n"
      "sel(X, [H|T], [H|R]) :- sel(X, T, R).\n"
      "queens(N, Qs) :- range(1, N, Ns), place(Ns, [], Qs).\n"
      "place([], Qs, Qs).\n"
      "place(Unplaced, Safe, Qs) :- sel(Q, Unplaced, R), safe(Q, Safe, 1),\n"
      "    place(R, [Q|Safe], Qs).\n"
      "safe(_, [], _).\n"
      "safe(Q, [Q1|Qs], D) :- Q =\\= Q1 + D, Q =\\= Q1 - D, D1 is D + 1,\n"
      "    safe(Q, Qs, D1).\n"
      "peer(E, C) :- emp(E, D, S), in_dept(D, C), emp(C, _, S2), S2 >= S.\n";
  std::vector<int> dept(s.employees), salary(s.employees);
  std::vector<std::vector<int>> members(s.depts);
  for (int e = 0; e < s.employees; ++e) {
    dept[e] = static_cast<int>(rng.Below(s.depts));
    salary[e] = 1000 + static_cast<int>(rng.Below(9000));
    members[dept[e]].push_back(e);
    w->program += "emp(" + std::to_string(e) + "," + std::to_string(dept[e]) +
                  "," + std::to_string(salary[e]) + ").\n";
  }
  for (int d = 0; d < s.depts; ++d) {
    for (int e : members[d]) w->program += Fact("in_dept", d, e) + ".\n";
  }
  w->edb_facts = 2 * static_cast<size_t>(s.employees);

  // Every cycle holds the same multiset of query shapes: 55% nrev, its
  // lengths spread evenly over nrev_min..nrev_max; 20% queens, N spread
  // evenly over queens_min..queens_max; the rest peer. The seed sets their
  // order, the list contents and the employees. Drawing each query's shape
  // on its own would let the mix, and the latencies with it, vary by seed.
  enum class Shape { kNrev, kQueens, kPeer };
  std::vector<std::pair<Shape, int>> shapes;  // shape, list length or N
  const int nrevs = static_cast<int>(std::lround(0.55 * s.queries));
  const int queens = static_cast<int>(std::lround(0.20 * s.queries));
  for (int k = 0; k < s.queries; ++k) {
    if (k < nrevs) {
      shapes.emplace_back(Shape::kNrev,
                          s.nrev_min + k % (s.nrev_max - s.nrev_min + 1));
    } else if (k < nrevs + queens) {
      shapes.emplace_back(
          Shape::kQueens,
          s.queens_min + (k - nrevs) % (s.queens_max - s.queens_min + 1));
    } else {
      shapes.emplace_back(Shape::kPeer, 0);
    }
  }
  Shuffle(&shapes, &rng);

  // Solution counts of the N-queens problem (OEIS A000170).
  static const size_t kQueens[] = {1, 1, 0, 0, 2, 10, 4, 40, 92, 352};
  for (const auto& [shape, param] : shapes) {
    Op op;
    if (shape == Shape::kNrev) {
      std::vector<int> list(param);
      for (int& x : list) x = static_cast<int>(rng.Below(1000));
      op.goal = "nrev(" + ListText(list) + ",R)";
      std::reverse(list.begin(), list.end());
      op.closed_form = {1, {ListText(list)}};
    } else if (shape == Shape::kQueens) {
      op.goal = "queens(" + std::to_string(param) + ",Qs)";
      op.closed_form.count = kQueens[param];
    } else {
      int e = static_cast<int>(rng.Below(s.employees));
      op.goal = "peer(" + std::to_string(e) + ",C)";
      for (int c : members[dept[e]]) {
        if (salary[c] >= salary[e]) {
          op.closed_form.answers.push_back(std::to_string(c));
        }
      }
      std::sort(op.closed_form.answers.begin(), op.closed_form.answers.end());
      op.closed_form.count = op.closed_form.answers.size();
    }
    w->ops.push_back(std::move(op));
  }
  w->shape = std::to_string(s.employees) + " employees in " +
             std::to_string(s.depts) + " departments; queries 55% nrev of " +
             std::to_string(s.nrev_min) + ".." + std::to_string(s.nrev_max) +
             " / 20% all queens(" + std::to_string(s.queens_min) + ".." +
             std::to_string(s.queens_max) + ") / 25% 3-way peer join";
}

// --- incr_rw and service_mix ----------------------------------------------

struct FamilySizes {
  int families, nodes, degree;
  int ops;              // per cycle
  double write_share;   // share of ops that are assert/retract updates
};

// Independent tabled reachability families reach<f>/2 over incremental
// edge relations e<f>/2. Updates come in pairs (a retract later undone by
// an assert, or an assert later undone by a retract) so every cycle of
// traffic starts from the same EDB.
void Families(uint64_t seed, const FamilySizes& s, Workload* w) {
  Rng rng(seed);
  std::vector<std::vector<Edge>> current(s.families);
  std::vector<std::set<Edge>> present(s.families);
  for (int f = 0; f < s.families; ++f) {
    std::string tf = std::to_string(f);
    std::string reach = "reach" + tf, e = "e" + tf;
    w->program += ":- table " + reach + "/2.\n:- incremental(" + e + "/2).\n" +
                  reach + "(X,Y) :- " + reach + "(X,Z), " + e + "(Z,Y).\n" +
                  reach + "(X,Y) :- " + e + "(X,Y).\n";
    OracleFamily family;
    family.rules = reach + "(S,Y) :- q" + tf + "(S), " + e + "(S,Y).\n" +
                   reach + "(S,Y) :- " + reach + "(S,Z), " + e + "(Z,Y).\n";
    w->families.push_back(std::move(family));
    current[f] = RandomDigraph(s.nodes, s.degree, &rng);
    present[f].insert(current[f].begin(), current[f].end());
    AddFacts(e, current[f], w, &w->families[f]);
  }
  const int variants = s.families * s.nodes;
  w->variant_family.resize(variants);
  w->completes.resize(variants);
  for (int v = 0; v < variants; ++v) {
    w->variant_family[v] = v / s.nodes;
    w->completes[v] = {v};  // left recursion calls only its own variant
  }

  auto update = [&](int f, const Edge& edge, bool assert_fact) {
    Op op;
    op.update = true;
    op.family = f;
    op.fact = Fact("e" + std::to_string(f), edge.first, edge.second);
    op.assert_fact = assert_fact;
    op.goal = std::string(assert_fact ? "assert(" : "retract(") + op.fact + ")";
    if (assert_fact) {
      current[f].push_back(edge);
      present[f].insert(edge);
    } else {
      auto it = std::find(current[f].begin(), current[f].end(), edge);
      *it = current[f].back();
      current[f].pop_back();
      present[f].erase(edge);
    }
    w->ops.push_back(std::move(op));
  };
  struct Undo {
    int family;
    Edge edge;
    bool assert_fact;
  };
  std::deque<Undo> pending;
  // Edges with an undo pending are left alone until it has run.
  std::vector<std::set<Edge>> locked(s.families);
  Zipf draw(variants, 0.7, &rng);
  // Exactly round(ops * write_share) slots of the cycle are writes, at
  // seeded positions. Drawing each slot on its own would let the number of
  // invalidations, and so the share of cold reads, vary by seed.
  std::vector<char> write_slot(s.ops, 0);
  std::fill_n(write_slot.begin(), std::lround(s.ops * s.write_share), 1);
  Shuffle(&write_slot, &rng);
  for (int i = 0; i < s.ops; ++i) {
    if (write_slot[i]) {
      if (!pending.empty() && (pending.size() >= 4 || rng.Unit() < 0.5)) {
        Undo undo = pending.front();
        pending.pop_front();
        locked[undo.family].erase(undo.edge);
        update(undo.family, undo.edge, undo.assert_fact);
        continue;
      }
      int f = static_cast<int>(rng.Below(s.families));
      Edge edge = current[f][rng.Below(current[f].size())];
      bool retract = rng.Unit() < 0.5 && locked[f].count(edge) == 0;
      while (!retract && (edge.first == edge.second ||
                          present[f].count(edge) > 0 ||
                          locked[f].count(edge) > 0)) {
        edge = {static_cast<int>(rng.Below(s.nodes)),
                static_cast<int>(rng.Below(s.nodes))};
      }
      update(f, edge, !retract);
      locked[f].insert(edge);
      pending.push_back({f, edge, retract});
      continue;
    }
    int v = draw.Draw(&rng);
    int f = v / s.nodes;
    std::string tf = std::to_string(f), c = std::to_string(v % s.nodes);
    w->ops.push_back(TabledQuery("reach" + tf + "(" + c + ",Y)", v, f,
                                 "reach" + tf + "(" + c + ",Y)",
                                 "q" + tf + "(" + c + ")"));
  }
  while (!pending.empty()) {
    locked[pending.front().family].erase(pending.front().edge);
    update(pending.front().family, pending.front().edge,
           pending.front().assert_fact);
    pending.pop_front();
  }
  char share[32];
  std::snprintf(share, sizeof(share), "%.1f%%", 100 * s.write_share);
  w->shape = std::to_string(s.families) + " incremental families x " +
             std::to_string(s.nodes) + "-node digraphs of out-degree " +
             std::to_string(s.degree) + "; " + share +
             " paired assert/retract updates, Zipf 0.7 reads";
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"tc_graph", "prolog_sld",
                                                  "incr_rw", "service_mix"};
  return kNames;
}

bool Generate(const std::string& name, uint64_t seed, bool smoke,
              Workload* out) {
  Workload w;
  w.name = name;
  if (name == "tc_graph") {
    TcGraph(seed, smoke, &w);
  } else if (name == "prolog_sld") {
    PrologSld(seed, smoke, &w);
  } else if (name == "incr_rw") {
    Families(seed,
             smoke ? FamilySizes{2, 12, 2, 80, 0.1}
                   : FamilySizes{8, 200, 3, 3000, 0.1},
             &w);
  } else if (name == "service_mix") {
    w.service = true;
    w.service_workers = 3;
    w.window = 3;
    Families(seed,
             smoke ? FamilySizes{2, 10, 2, 200, 0.02}
                   : FamilySizes{8, 40, 2, 30000, 0.002},
             &w);
  } else {
    return false;
  }
  w.program_bytes = w.program.size();
  *out = std::move(w);
  return true;
}

}  // namespace scenarios
