// Clause resolution in Machine: head matching against the stored clause,
// choice points only for real alternatives, pre-split clause bodies, the
// logical update view, and the goal-arena discipline.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "db/loader.h"
#include "engine/machine.h"
#include "parser/reader.h"
#include "parser/writer.h"
#include "term/flat.h"
#include "term/store.h"
#include "xsb/engine.h"

namespace xsb {
namespace {

class MachineResolutionTest : public ::testing::Test {
 protected:
  MachineResolutionTest()
      : store_(&symbols_),
        program_(&symbols_),
        loader_(&store_, &program_),
        machine_(&store_, &program_) {}

  void Load(const std::string& text) {
    Status s = loader_.ConsultString(text);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  Word Parse(const std::string& text) {
    std::string buffer = text + " .";
    Reader reader(&store_, program_.ops(), buffer, program_.hilog_atoms());
    Result<Word> r = reader.ReadClause();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value();
  }

  size_t Count(const std::string& goal) {
    Result<size_t> r = machine_.CountSolutions(Parse(goal));
    EXPECT_TRUE(r.ok()) << goal << ": " << r.status().ToString();
    return r.ok() ? r.value() : 0;
  }

  // All solutions of `goal` projected on `templ`, rendered.
  std::vector<std::string> Answers(const std::string& templ,
                                   const std::string& goal) {
    Word pair = Parse("'$pair'(" + templ + ",(" + goal + "))");
    Word t = store_.Arg(store_.Deref(pair), 0);
    Word g = store_.Arg(store_.Deref(pair), 1);
    Result<std::vector<FlatTerm>> r = machine_.FindAll(t, g);
    EXPECT_TRUE(r.ok()) << goal << ": " << r.status().ToString();
    std::vector<std::string> out;
    if (!r.ok()) return out;
    WriteOptions options;
    options.use_operators = false;
    for (const FlatTerm& flat : r.value()) {
      out.push_back(WriteFlat(&store_, *program_.ops(), flat, options));
    }
    return out;
  }

  std::string Show(Word t) {
    WriteOptions options;
    options.use_operators = false;
    return WriteFlat(&store_, *program_.ops(), Flatten(store_, t), options);
  }

  Word Atom(const char* name) { return AtomCell(symbols_.InternAtom(name)); }
  Word S(const char* name, std::vector<Word> args) {
    FunctorId f = symbols_.InternFunctor(symbols_.InternAtom(name),
                                         static_cast<int>(args.size()));
    return store_.MakeStruct(f, args);
  }

  const Clause& FirstClause(const char* name, int arity) {
    FunctorId f = symbols_.InternFunctor(symbols_.InternAtom(name), arity);
    return program_.Lookup(f)->clause(0);
  }

  SymbolTable symbols_;
  TermStore store_;
  Program program_;
  Loader loader_;
  Machine machine_;
};

// --- Head matching -----------------------------------------------------------

TEST_F(MachineResolutionTest, UnifyFlatRepeatedVariableUnifiesItsOccurrences) {
  Word x = store_.MakeVar();
  FlatTerm head = Flatten(store_, S("p", {x, x}));
  std::vector<uint64_t> work;

  Word a = store_.MakeVar();
  std::vector<Word> vars(head.num_vars, kUnsetSlot);
  size_t pos = 0;
  ASSERT_TRUE(
      UnifyFlat(&store_, head, &pos, S("p", {a, Atom("b")}), &vars, &work));
  EXPECT_EQ(pos, head.size());
  EXPECT_EQ(store_.Deref(a), Atom("b"));

  vars.assign(head.num_vars, kUnsetSlot);
  pos = 0;
  EXPECT_FALSE(UnifyFlat(&store_, head, &pos,
                         S("p", {Atom("a"), Atom("b")}), &vars, &work));
}

TEST_F(MachineResolutionTest, UnifyFlatAliasesWithoutBuilding) {
  Word x = store_.MakeVar();
  Word y = store_.MakeVar();
  FlatTerm head = Flatten(store_, S("p", {x, S("g", {y}), y}));
  std::vector<uint64_t> work;
  std::vector<Word> vars(head.num_vars, kUnsetSlot);
  Word goal = S("p", {S("f", {Atom("a")}), S("g", {IntCell(3)}), IntCell(3)});
  size_t heap = store_.HeapMark();
  size_t trail = store_.TrailMark();
  size_t pos = 0;
  ASSERT_TRUE(UnifyFlat(&store_, head, &pos, goal, &vars, &work));
  // The goal already has every subterm: nothing is built or bound, and the
  // clause variables alias the goal's subterms.
  EXPECT_EQ(store_.HeapMark(), heap);
  EXPECT_EQ(store_.TrailMark(), trail);
  EXPECT_EQ(Show(vars[0]), "f(a)");
  EXPECT_EQ(store_.Deref(vars[1]), IntCell(3));
}

TEST_F(MachineResolutionTest, UnifyFlatBuildsStructureIntoUnboundGoalArgument) {
  Word x = store_.MakeVar();
  Word y = store_.MakeVar();
  FlatTerm head = Flatten(store_, S("mk", {S("f", {x, S("g", {y, x})}), x}));
  std::vector<uint64_t> work;
  std::vector<Word> vars(head.num_vars, kUnsetSlot);
  Word t = store_.MakeVar();
  Word goal = S("mk", {t, Atom("k")});
  size_t pos = 0;
  ASSERT_TRUE(UnifyFlat(&store_, head, &pos, goal, &vars, &work));
  // X is shared between the built structure and the later argument.
  EXPECT_EQ(Show(t), "f(k,g(_G0,k))");
}

TEST_F(MachineResolutionTest, VarVarHeadBindingsAlias) {
  Load("same(X, X).\n");
  Word a = store_.MakeVar();
  Word b = store_.MakeVar();
  Word goal = S("same", {a, b});
  bool solved = false;
  Status status = machine_.Solve(goal, [&]() {
    solved = true;
    EXPECT_TRUE(store_.Unify(a, IntCell(7)));
    EXPECT_EQ(store_.Deref(b), IntCell(7));
    return SolveAction::kStop;
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(solved);
  EXPECT_EQ(Count("same(f(Y), f(a)), Y == a"), 1u);
  EXPECT_EQ(Count("same(a, b)"), 0u);
}

TEST_F(MachineResolutionTest, NestedHeadStructureBindsUnboundGoalArgument) {
  Load("mk(f(X, g(Y, X), [a|Y])).\n");
  EXPECT_EQ(Answers("T", "mk(T)"),
            (std::vector<std::string>{"f(_G0,g(_G1,_G0),[a|_G1])"}));
  EXPECT_EQ(Answers("Z-W", "mk(f(1, g(2, Z), W))"),
            (std::vector<std::string>{"-(1,[a|2])"}));
  EXPECT_EQ(Count("mk(f(1, g(2, 3), _))"), 0u);
}

TEST_F(MachineResolutionTest, VariableAtHeapCellZeroIsNotAnUnsetSlot) {
  // The first heap cell of a fresh store is RefCell(0) == 0, the value an
  // unset slot used to have.
  SymbolTable symbols;
  TermStore store(&symbols);
  Word v0 = store.MakeVar();
  ASSERT_EQ(v0, RefCell(0));
  Program program(&symbols);
  Loader loader(&store, &program);
  Machine machine(&store, &program);
  ASSERT_TRUE(loader.ConsultString("same(X, X).\n").ok());
  Word b = AtomCell(symbols.InternAtom("b"));
  Word goal = store.MakeStruct(
      symbols.InternFunctor(symbols.InternAtom("same"), 2), {v0, b});
  Result<bool> r = machine.SolveOnce(goal);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value());
  EXPECT_EQ(store.Deref(v0), b);
}

// --- Choice points and cut ---------------------------------------------------

TEST_F(MachineResolutionTest, DeterministicCallsPushNoChoicePoint) {
  Load("app([], L, L).\n"
       "app([H|T], L, [H|R]) :- app(T, L, R).\n"
       "nrev([], []).\n"
       "nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n");
  MachineStats before = machine_.stats();
  EXPECT_EQ(Answers("R", "nrev([1,2,3,4,5,6,7,8], R)"),
            (std::vector<std::string>{"[8,7,6,5,4,3,2,1]"}));
  // 9 nrev/2 calls and 1 + 2 + ... + 8 app/3 calls, one clause tried each.
  MachineStats after = machine_.stats();
  EXPECT_EQ(after.user_calls - before.user_calls, 45u);
  EXPECT_EQ(after.head_unifications - before.head_unifications, 45u);
  EXPECT_EQ(after.choice_points, before.choice_points);
}

TEST_F(MachineResolutionTest, CutInSingleCandidateClauseKeepsCallerChoices) {
  Load("m(1). m(2). m(3).\n"
       "n(a). n(b).\n"
       "one(Y) :- n(Y), !.\n"
       "top(X, Y) :- m(X), one(Y).\n"
       "first(X) :- m(X), !.\n");
  // one/1 has a single clause, so it runs without a choice point; its cut
  // must still prune only n/1's alternatives, not m/1's.
  EXPECT_EQ(Answers("X-Y", "top(X, Y)"),
            (std::vector<std::string>{"-(1,a)", "-(2,a)", "-(3,a)"}));
  EXPECT_EQ(Answers("X", "first(X)"), (std::vector<std::string>{"1"}));
  EXPECT_EQ(Answers("X", "m(X), first(Y), Y == 1"),
            (std::vector<std::string>{"1", "2", "3"}));
}

TEST_F(MachineResolutionTest, CutInLastAlternativeCutsToTheCall) {
  Load("m(1). m(2). m(3).\n"
       "pick(X) :- X = none.\n"
       "pick(X) :- m(X), !.\n"
       "outer(X, Z) :- m(Z), pick(X).\n");
  // pick/1's second clause runs after its choice point was popped; its cut
  // still stops at the call, keeping outer/2's m(Z) choices.
  EXPECT_EQ(Answers("X", "pick(X)"), (std::vector<std::string>{"none", "1"}));
  EXPECT_EQ(Count("outer(X, Z)"), 6u);
}

TEST_F(MachineResolutionTest, IfThenElseInsidePreSplitBodies) {
  Load("m(1). m(2). m(3).\n"
       "size(X, R) :- m(X), (X > 2 -> R = big ; R = small), R \\== none.\n"
       "upto2(X) :- m(X), (X >= 2 -> ! ; true).\n"
       "nest(X) :- (m(X), X > 1), (X < 3, true).\n");
  EXPECT_EQ(Answers("X-R", "size(X, R)"),
            (std::vector<std::string>{"-(1,small)", "-(2,small)", "-(3,big)"}));
  // A cut in the then-branch is the clause's cut.
  EXPECT_EQ(Answers("X", "upto2(X)"), (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(Answers("X", "nest(X)"), (std::vector<std::string>{"2"}));
}

TEST_F(MachineResolutionTest, BodiesAreSplitIntoConjunctsAtAddClause) {
  Load("a. b. c.\n"
       "p1 :- a, (b, c).\n"
       "p2 :- (a, b), c.\n"
       "p3 :- (a ; b), c.\n"
       "p4 :- true.\n"
       "f.\n");
  EXPECT_EQ(FirstClause("p1", 0).body.size(), 3u);
  EXPECT_EQ(FirstClause("p2", 0).body.size(), 3u);
  EXPECT_EQ(FirstClause("p3", 0).body.size(), 2u);
  EXPECT_EQ(FirstClause("p4", 0).body.size(), 1u);
  EXPECT_TRUE(FirstClause("f", 0).body.empty());
  MachineStats before = machine_.stats();
  EXPECT_EQ(Count("p1"), 1u);
  EXPECT_EQ(Count("p2"), 1u);
  // Neither run dispatched a ','/2 goal: all calls were to a, b, c, p1, p2.
  EXPECT_EQ(machine_.stats().user_calls - before.user_calls, 8u);
}

// --- Logical update view -----------------------------------------------------

TEST_F(MachineResolutionTest, AssertzDuringSingleCandidateCall) {
  Load(":- dynamic cnt/1.\ncnt(0).\n");
  // cnt/1 has one clause at the call: no choice point, and the clause
  // asserted during the call is not seen by it.
  MachineStats before = machine_.stats();
  EXPECT_EQ(Count("cnt(X), X1 is X + 1, assertz(cnt(X1))"), 1u);
  EXPECT_EQ(machine_.stats().choice_points, before.choice_points);
  EXPECT_EQ(Answers("X", "cnt(X)"), (std::vector<std::string>{"0", "1"}));
}

TEST_F(MachineResolutionTest, AssertDuringIterationIsNotSeen) {
  Load(":- dynamic q/1.\nq(1). q(2).\n"
       ":- dynamic w/1.\nw(1). w(2).\n"
       ":- dynamic ix/2.\nix(a, 1). ix(a, 2). ix(b, 3).\n");
  EXPECT_EQ(Answers("X", "q(X), assertz(q(3))"),
            (std::vector<std::string>{"1", "2"}));
  // asserta renumbers the clauses; the iteration keeps to the ones that
  // existed at the call, on the unindexed path and on an index bucket.
  EXPECT_EQ(Answers("X", "w(X), asserta(w(0))"),
            (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(Answers("X", "w(X)"),
            (std::vector<std::string>{"0", "0", "1", "2"}));
  EXPECT_EQ(Answers("V", "ix(a, V), asserta(ix(a, 0))"),
            (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(Answers("V", "ix(a, V)"),
            (std::vector<std::string>{"0", "0", "1", "2"}));
}

TEST_F(MachineResolutionTest, RetractDuringIterationSkipsRetractedClauses) {
  Load(":- dynamic r/1.\nr(1). r(2). r(3).\n"
       ":- dynamic solo/1.\nsolo(1).\n");
  // Choice-point path: r(2) is retracted before the iteration reaches it.
  EXPECT_EQ(Answers("X", "r(X), (X == 1 -> retract(r(2)) ; true)"),
            (std::vector<std::string>{"1", "3"}));
  // Retracting the last untried candidate leaves nothing to backtrack into.
  EXPECT_EQ(Answers("X", "r(X), retract(r(3))"),
            (std::vector<std::string>{"1"}));
  // No-choice-point path: the clause may retract itself.
  EXPECT_EQ(Count("solo(X), retract(solo(X))"), 1u);
  EXPECT_EQ(Count("solo(_)"), 0u);
  // A retracted first candidate leaves one live clause: no choice point.
  Load(":- dynamic z/1.\nz(1). z(2).\n");
  EXPECT_EQ(Count("retract(z(1))"), 1u);
  MachineStats before = machine_.stats();
  EXPECT_EQ(Answers("X", "z(X)"), (std::vector<std::string>{"2"}));
  EXPECT_EQ(machine_.stats().choice_points, before.choice_points);
}

TEST_F(MachineResolutionTest, PredicateDefinedAfterAMissIsFound) {
  Status status = machine_.Solve(Parse("later(X)"),
                                 []() { return SolveAction::kContinue; });
  EXPECT_EQ(status.code(), ErrorCode::kExistence);
  EXPECT_EQ(Count("assertz(later(1))"), 1u);
  EXPECT_EQ(Answers("X", "later(X)"), (std::vector<std::string>{"1"}));
}

// --- Goal arena --------------------------------------------------------------

TEST_F(MachineResolutionTest, SolveLeavesTheArenaAsItFoundIt) {
  Load("m(1). m(2).\n"
       "p(X) :- m(X), X > 1.\n");
  size_t entry = machine_.arena_size();
  EXPECT_EQ(Count("p(X)"), 1u);
  EXPECT_EQ(machine_.arena_size(), entry);
  EXPECT_EQ(Count("p(X), X > 5"), 0u);  // failure
  EXPECT_EQ(machine_.arena_size(), entry);
  Result<bool> once = machine_.SolveOnce(Parse("p(X)"));  // stopped early
  ASSERT_TRUE(once.ok());
  EXPECT_EQ(machine_.arena_size(), entry);
  Status error = machine_.Solve(Parse("m(X), Y is X + foo"),
                                []() { return SolveAction::kContinue; });
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(machine_.arena_size(), entry);
}

TEST_F(MachineResolutionTest, ArenaIsBoundedOverRepeatedQueries) {
  Load("app([], L, L).\n"
       "app([H|T], L, [H|R]) :- app(T, L, R).\n"
       "nrev([], []).\n"
       "nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n");
  Word goal = Parse(
      "nrev([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,"
      "25,26,27,28,29,30], _)");
  size_t entry = machine_.arena_size();
  size_t heap = store_.HeapMark();
  size_t first_peak = 0;
  for (int i = 0; i < 10000; ++i) {
    size_t peak = 0;
    Status status = machine_.Solve(goal, [&]() {
      peak = machine_.arena_size();
      return SolveAction::kContinue;
    });
    ASSERT_TRUE(status.ok()) << status.ToString();
    if (i == 0) first_peak = peak;
    ASSERT_EQ(peak, first_peak) << "query " << i;
    ASSERT_EQ(machine_.arena_size(), entry) << "query " << i;
    ASSERT_EQ(store_.HeapMark(), heap) << "query " << i;
  }
  EXPECT_GT(first_peak, entry);
}

TEST_F(MachineResolutionTest, ArenaIsBoundedUnderDeepBacktracking) {
  Load("step(X, Y) :- Y is X * 2, Y > 0, Z = f(Y), Z \\== g.\n"
       "work(X) :- step(X, Y), step(Y, W), W > X.\n");
  // 20000 backtracks into between/3, each after a few resolution steps;
  // every backtrack frees what the failed branch put in the arena.
  size_t entry = machine_.arena_size();
  size_t at_solution = 0;
  Status status = machine_.Solve(
      Parse("between(1, 20000, X), work(X), X >= 20000"), [&]() {
        at_solution = machine_.arena_size();
        return SolveAction::kContinue;
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(at_solution, entry);
  EXPECT_LT(at_solution - entry, 64u);
  EXPECT_EQ(machine_.arena_size(), entry);
}

TEST(EngineResolution, QueriesLeaveHeapAndArenaAsTheyFoundThem) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString("app([], L, L).\n"
                                 "app([H|T], L, [H|R]) :- app(T, L, R).\n")
                  .ok());
  size_t heap = engine.store().heap_size();
  size_t arena = engine.machine().arena_size();
  for (int i = 0; i < 100; ++i) {
    // The query text itself is parsed onto the heap; it must go too.
    Result<size_t> n = engine.Count("app(X, Y, [1,2,3,4,5,6,7,8])");
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(n.value(), 9u);
    EXPECT_FALSE(engine.Count("app([1,2,3], X, ").ok());  // parse error
    ASSERT_EQ(engine.store().heap_size(), heap) << "query " << i;
    ASSERT_EQ(engine.machine().arena_size(), arena) << "query " << i;
  }
}

}  // namespace
}  // namespace xsb
