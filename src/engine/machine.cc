#include "engine/machine.h"

#include <algorithm>

#include "engine/builtins.h"

namespace xsb {

namespace {

constexpr FunctorId kNoFunctor = ~FunctorId{0};

// Arithmetic operators, as stored in Machine::arith_ops_.
enum ArithOp : uint8_t {
  kNoOp = 0,
  kNeg,
  kPlus,
  kAbs,
  kSign,
  kBitNot,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kRem,
  kMin,
  kMax,
  kShr,
  kShl,
  kBitAnd,
  kBitOr,
  kXor,
  kPow,
};

}  // namespace

Machine::Machine(TermStore* store, Program* program)
    : store_(store),
      program_(program),
      builtins_(std::make_unique<BuiltinRegistry>(store->symbols())) {
  SymbolTable* symbols = store->symbols();
  functor_table_.resize(symbols->num_functors());
  auto control = [&](const char* name, int arity, Control kind) {
    FunctorId f = symbols->InternFunctor(symbols->InternAtom(name), arity);
    Entry(f).control = kind;
    return f;
  };
  control(",", 2, Control::kConjunction);
  control(";", 2, Control::kDisjunction);
  f_arrow_ = control("->", 2, Control::kIfThen);
  control("\\+", 1, Control::kNegation);
  control("!", 0, Control::kCut);
  control("tcut", 0, Control::kCut);
  control("true", 0, Control::kTrue);
  control("fail", 0, Control::kFail);
  control("false", 0, Control::kFail);
  f_ite_commit_ = control("$ite_commit", 1, Control::kIteCommit);
  control("$tabled_answer", 2, Control::kTabledAnswer);
  control("tnot", 1, Control::kTnot);
  control("e_tnot", 1, Control::kETnot);
  control("tfindall", 3, Control::kTFindall);
  control("$resolve_clauses", 1, Control::kResolveClauses);
  fail_atom_ = AtomCell(symbols->InternAtom("fail"));
  auto arith = [&](const char* name, int arity, ArithOp op) {
    FunctorId f = symbols->InternFunctor(symbols->InternAtom(name), arity);
    if (f >= arith_ops_.size()) arith_ops_.resize(f + 1, kNoOp);
    arith_ops_[f] = op;
  };
  arith("-", 1, kNeg);
  arith("+", 1, kPlus);
  arith("abs", 1, kAbs);
  arith("sign", 1, kSign);
  arith("\\", 1, kBitNot);
  arith("+", 2, kAdd);
  arith("-", 2, kSub);
  arith("*", 2, kMul);
  arith("//", 2, kDiv);
  arith("/", 2, kDiv);
  arith("mod", 2, kMod);
  arith("rem", 2, kRem);
  arith("min", 2, kMin);
  arith("max", 2, kMax);
  arith(">>", 2, kShr);
  arith("<<", 2, kShl);
  arith("/\\", 2, kBitAnd);
  arith("\\/", 2, kBitOr);
  arith("xor", 2, kXor);
  arith("**", 2, kPow);
  arith("^", 2, kPow);
}

Machine::~Machine() = default;

void Machine::CutTo(size_t depth) {
  if (cps_.size() > depth) {
    candidate_pool_.resize(cps_[depth].pool_mark);
    cps_.resize(depth);
  }
}

Machine::ChoicePoint& Machine::PushChoice(ChoiceKind kind,
                                          const GoalNode* cont) {
  ChoicePoint& cp = cps_.emplace_back();
  cp.kind = kind;
  cp.cont = cont;
  cp.trail_mark = store_->TrailMark();
  cp.heap_mark = store_->HeapMark();
  cp.arena_mark = arena_.size();
  cp.pool_mark = candidate_pool_.size();
  ++stats_.choice_points;
  return cp;
}

void Machine::PopChoice() {
  candidate_pool_.resize(cps_.back().pool_mark);
  cps_.pop_back();
}

void Machine::PushAnswerChoices(Word goal, const AnswerSource* answers,
                                const GoalNode* cont) {
  ChoicePoint& cp = PushChoice(ChoiceKind::kAnswers, cont);
  cp.goal = goal;
  cp.answers = answers;
  const FlatTerm* tmpl = answers->answer_template();
  if (tmpl != nullptr) {
    // Substitution-factored source: match the call template against the
    // goal once, here, *before* capturing the choice point's marks. The
    // goal is a variant of the template (that is how the table was found),
    // so this only aliases template variables to goal subterms; per-answer
    // backtracking then undoes answer bindings but keeps the aliasing, and
    // each answer needs only its binding cells unified — the ground call
    // skeleton is never decoded again.
    cp.template_vars.assign(tmpl->num_vars, kUnsetSlot);
    size_t pos = 0;
    if (UnifyFlat(store_, *tmpl, &pos, goal, &cp.template_vars,
                  &unify_scratch_)) {
      cp.factored = true;
      cp.trail_mark = store_->TrailMark();
      cp.heap_mark = store_->HeapMark();
    } else {
      // Cannot happen for variant calls; fall back to full answer reads.
      store_->UndoTrail(cp.trail_mark);
      store_->TruncateHeap(cp.heap_mark);
      cp.template_vars.clear();
    }
  }
}

void Machine::PushBetweenChoices(Word var, int64_t low, int64_t high,
                                 const GoalNode* cont) {
  ChoicePoint& cp = PushChoice(ChoiceKind::kBetween, cont);
  cp.goal = var;
  cp.next_value = low;
  cp.max_value = high;
}

void Machine::PushPendingGoal(Word goal) {
  pending_goals_.emplace_back(goal, false);
}

void Machine::PushPendingGoalOpaqueCut(Word goal) {
  pending_goals_.emplace_back(goal, true);
}

bool Machine::TryClause(Predicate* pred, ClauseId id, Word goal,
                        const GoalNode* cont, uint32_t entry_depth,
                        const GoalNode** new_goals) {
  const Clause& clause = pred->clause(id);
  ++stats_.head_unifications;
  clause_vars_.assign(clause.term.num_vars, kUnsetSlot);
  size_t pos = clause.head_pos;
  if (!UnifyFlat(store_, clause.term, &pos, goal, &clause_vars_,
                 &unify_scratch_)) {
    return false;
  }
  // Build the conjuncts left to right, so variables first met in the body
  // get cells in reading order, then cons them onto the continuation.
  body_scratch_.clear();
  for (uint32_t start : clause.body) {
    size_t p = start;
    body_scratch_.push_back(
        UnflattenNext(store_, clause.term, &p, &clause_vars_));
  }
  const GoalNode* g = cont;
  for (auto it = body_scratch_.rbegin(); it != body_scratch_.rend(); ++it) {
    g = Cons(*it, g, entry_depth);
  }
  *new_goals = g;
  return true;
}

ClauseId Machine::CandidateAt(const ChoicePoint& cp) const {
  ClauseId id =
      cp.in_pool ? candidate_pool_[cp.next_candidate] : cp.next_candidate;
  return id + (cp.pred->front_inserts() - cp.front_inserts);
}

bool Machine::SkipDeadCandidates(ChoicePoint& cp) const {
  for (; cp.next_candidate < cp.end_candidate; ++cp.next_candidate) {
    ClauseId id = CandidateAt(cp);
    if (id < cp.pred->clauses().size() && !cp.pred->clause(id).erased) {
      return true;
    }
  }
  return false;
}

bool Machine::Backtrack(size_t base_cp, const GoalNode** goals) {
  while (cps_.size() > base_cp) {
    ChoicePoint& cp = cps_.back();
    store_->UndoTrail(cp.trail_mark);
    store_->TruncateHeap(cp.heap_mark);
    arena_.Truncate(cp.arena_mark);
    switch (cp.kind) {
      case ChoiceKind::kClauses: {
        if (!SkipDeadCandidates(cp)) {
          PopChoice();
          continue;
        }
        ClauseId id = CandidateAt(cp);
        ++cp.next_candidate;
        Predicate* pred = cp.pred;
        Word goal = cp.goal;
        const GoalNode* cont = cp.cont;
        uint32_t entry_depth = static_cast<uint32_t>(cps_.size() - 1);
        // The last alternative runs without its choice point.
        if (!SkipDeadCandidates(cp)) PopChoice();
        if (TryClause(pred, id, goal, cont, entry_depth, goals)) return true;
        continue;
      }
      case ChoiceKind::kDisjunction: {
        Word alternative = cp.alternative;
        const GoalNode* cont = cp.cont;
        uint32_t cut_depth = cp.cut_depth;
        PopChoice();
        *goals = Cons(alternative, cont, cut_depth);
        return true;
      }
      case ChoiceKind::kAnswers: {
        if (cp.factored) {
          // Factored return: per answer, match only the binding segments,
          // each against its (goal-aliased) template variable.
          while (cp.next_answer < cp.answers->size()) {
            // Answer subsumption: an answer retired by a better one is
            // skipped, not returned. The cursor itself stays valid.
            if (!cp.answers->live(cp.next_answer)) {
              ++cp.next_answer;
              continue;
            }
            cp.answers->ReadBindings(cp.next_answer++, &answer_scratch_);
            answer_vars_scratch_.assign(answer_scratch_.num_vars, kUnsetSlot);
            size_t pos = 0;
            bool ok = true;
            for (Word tv : cp.template_vars) {
              if (!UnifyFlat(store_, answer_scratch_, &pos, tv,
                             &answer_vars_scratch_, &unify_scratch_)) {
                ok = false;
                break;
              }
            }
            if (ok) {
              ++stats_.factored_answer_returns;
              *goals = cp.cont;
              return true;
            }
            store_->UndoTrail(cp.trail_mark);
            store_->TruncateHeap(cp.heap_mark);
          }
          PopChoice();
          continue;
        }
        while (cp.next_answer < cp.answers->size()) {
          if (!cp.answers->live(cp.next_answer)) {
            ++cp.next_answer;
            continue;
          }
          cp.answers->ReadAnswer(cp.next_answer++, &answer_scratch_);
          answer_vars_scratch_.assign(answer_scratch_.num_vars, kUnsetSlot);
          size_t pos = 0;
          if (UnifyFlat(store_, answer_scratch_, &pos, cp.goal,
                        &answer_vars_scratch_, &unify_scratch_)) {
            *goals = cp.cont;
            return true;
          }
          store_->UndoTrail(cp.trail_mark);
          store_->TruncateHeap(cp.heap_mark);
        }
        PopChoice();
        continue;
      }
      case ChoiceKind::kBetween: {
        if (cp.next_value <= cp.max_value) {
          Word v = IntCell(cp.next_value++);
          if (store_->Unify(cp.goal, v)) {
            *goals = cp.cont;
            return true;
          }
          continue;
        }
        PopChoice();
        continue;
      }
    }
  }
  return false;
}

void Machine::GrowFunctorTable(FunctorId functor) {
  functor_table_.resize(
      std::max<size_t>(functor + 1, 2 * functor_table_.size()));
}

Predicate* Machine::LookupPredicate(FunctorId functor) {
  FunctorEntry& entry = Entry(functor);
  if (entry.pred == nullptr) entry.pred = program_->Lookup(functor);
  return entry.pred;
}

FunctorId Machine::AtomFunctor(AtomId atom) {
  if (atom >= atom_functors_.size()) {
    atom_functors_.resize(
        std::max<size_t>(atom + 1, 2 * atom_functors_.size()), kNoFunctor);
  }
  FunctorId& functor = atom_functors_[atom];
  if (functor == kNoFunctor) {
    functor = store_->symbols()->InternFunctor(atom, 0);
  }
  return functor;
}

Machine::StepResult Machine::CallUserPredicate(Word goal, FunctorId functor,
                                               const GoalNode* cont,
                                               uint32_t cut_depth,
                                               bool force_clause_resolution,
                                               const GoalNode** goals) {
  ++stats_.user_calls;
  if (has_counted_functor_ && functor == counted_functor_) {
    ++stats_.counted_calls;
  }
  Predicate* pred = LookupPredicate(functor);

  if (!force_clause_resolution && pred != nullptr && pred->tabled() &&
      !ignore_tabling_) {
    if (handler_ == nullptr) {
      SetError(InvalidError(
          "call to tabled predicate without a tabling evaluator"));
      return StepResult::kError;
    }
    switch (handler_->OnTabledCall(this, goal, cont)) {
      case TabledCallHandler::CallOutcome::kFail:
      case TabledCallHandler::CallOutcome::kContinue:
        // Either the branch is suspended/failed, or an answer choice point
        // was pushed; both proceed through the backtracker.
        return StepResult::kBacktrack;
      case TabledCallHandler::CallOutcome::kError:
        return StepResult::kError;
    }
  }

  // From here on the goal resolves against clauses (this includes the
  // tabling evaluator's own $resolve_clauses episodes): tell the table
  // maintenance subsystem when the predicate is incremental, so the table
  // being computed records its dependency on these clauses.
  if (pred != nullptr && pred->incremental() && handler_ != nullptr) {
    handler_->OnIncrementalAccess(functor);
  }

  SymbolTable* symbols = store_->symbols();
  if (pred == nullptr || pred->num_live_clauses() == 0) {
    // HiLog runtime dispatch: apply(F, Args...) with F bound to an atom and
    // no matching hilog clauses falls back to the first-order predicate F/N.
    if (symbols->FunctorAtom(functor) == symbols->apply() &&
        symbols->FunctorArity(functor) >= 2 && IsStruct(goal)) {
      Word head = store_->Deref(store_->Arg(goal, 0));
      if (IsAtom(head)) {
        int arity = symbols->FunctorArity(functor) - 1;
        FunctorId fo = symbols->InternFunctor(AtomOf(head), arity);
        Word fo_goal;
        if (arity == 0) {
          fo_goal = head;
        } else {
          std::vector<Word> args(static_cast<size_t>(arity));
          for (int i = 0; i < arity; ++i) args[i] = store_->Arg(goal, i + 1);
          fo_goal = store_->MakeStruct(fo, args);
        }
        return CallUserPredicate(fo_goal, fo, cont, cut_depth,
                                 force_clause_resolution, goals);
      }
    }
    if (pred == nullptr) {
      SetError(ExistenceError(
          "unknown predicate " +
          symbols->AtomName(symbols->FunctorAtom(functor)) + "/" +
          std::to_string(symbols->FunctorArity(functor))));
      return StepResult::kError;
    }
    return StepResult::kBacktrack;  // declared but currently empty: fail
  }

  // Find the first two live candidates. With one, its clause runs without
  // a choice point, and a cut in its body cuts back to the height at the
  // call. With two or more, the choice point keeps the untried rest.
  CandidateSpan candidates = pred->CandidateIds(*store_, goal, &index_scratch_);
  auto next_live = [&](uint32_t i) {
    while (i < candidates.size && pred->clause(candidates[i]).erased) ++i;
    return i;
  };
  uint32_t first = next_live(0);
  if (first == candidates.size) return StepResult::kBacktrack;
  uint32_t second = next_live(first + 1);
  uint32_t entry_depth = static_cast<uint32_t>(cps_.size());
  if (second < candidates.size) {
    ChoicePoint& cp = PushChoice(ChoiceKind::kClauses, cont);
    cp.goal = goal;
    cp.pred = pred;
    cp.front_inserts = pred->front_inserts();
    if (candidates.ids == nullptr) {
      cp.next_candidate = second;
      cp.end_candidate = candidates.size;
    } else {
      cp.in_pool = true;
      cp.next_candidate = static_cast<uint32_t>(candidate_pool_.size());
      candidate_pool_.insert(candidate_pool_.end(), candidates.ids + second,
                             candidates.ids + candidates.size);
      cp.end_candidate = static_cast<uint32_t>(candidate_pool_.size());
    }
  }
  if (TryClause(pred, candidates[first], goal, cont, entry_depth, goals)) {
    return StepResult::kAdvance;
  }
  return StepResult::kBacktrack;
}

Machine::StepResult Machine::DispatchGoal(const GoalNode** goals) {
  const GoalNode* node = *goals;
  Word goal = store_->Deref(node->goal);

  if (IsRef(goal)) {
    SetError(InstantiationError("call to an unbound variable"));
    return StepResult::kError;
  }
  if (IsInt(goal)) {
    SetError(TypeError("integers are not callable"));
    return StepResult::kError;
  }

  SymbolTable* symbols = store_->symbols();
  FunctorId functor = IsAtom(goal) ? AtomFunctor(AtomOf(goal))
                                   : store_->StructFunctor(goal);

  // --- Control constructs ----------------------------------------------------
  Control control = Entry(functor).control;
  switch (control) {
    case Control::kNone:
      break;
    case Control::kTrue:
      *goals = node->next;
      return StepResult::kAdvance;
    case Control::kConjunction: {
      // Clause bodies arrive split into conjuncts; this handles conjunctions
      // built at run time (call/1, findall/3 goals, ...).
      Word a = store_->Arg(goal, 0);
      Word b = store_->Arg(goal, 1);
      *goals = Cons(a, Cons(b, node->next, node->cut_depth), node->cut_depth);
      return StepResult::kAdvance;
    }
    case Control::kFail:
      return StepResult::kBacktrack;
    case Control::kCut:
      // tcut/0 (section 4.4) prunes like '!'; freeing the tables it cuts
      // over is only done when provably safe, which under local scheduling
      // is the existential-negation path inside the evaluator. Here it is a
      // cut.
      CutTo(node->cut_depth);
      *goals = node->next;
      return StepResult::kAdvance;
    case Control::kDisjunction:
    case Control::kIfThen: {
      Word condition = 0;
      Word then_goal = 0;
      Word else_goal = 0;
      bool is_ite = false;
      if (functor == f_arrow_) {
        is_ite = true;
        condition = store_->Arg(goal, 0);
        then_goal = store_->Arg(goal, 1);
        else_goal = fail_atom_;
      } else {
        Word left = store_->Deref(store_->Arg(goal, 0));
        else_goal = store_->Arg(goal, 1);
        if (IsStruct(left) && store_->StructFunctor(left) == f_arrow_) {
          is_ite = true;
          condition = store_->Arg(left, 0);
          then_goal = store_->Arg(left, 1);
        } else {
          condition = left;  // plain disjunction
        }
      }
      ChoicePoint& cp = PushChoice(ChoiceKind::kDisjunction, node->next);
      cp.alternative = else_goal;
      cp.cut_depth = node->cut_depth;
      if (is_ite) {
        size_t cp_index = cps_.size() - 1;
        Word commit = store_->MakeStruct(
            f_ite_commit_, {IntCell(static_cast<int64_t>(cp_index))});
        // The condition gets a local cut barrier; Then is cut-transparent.
        const GoalNode* rest = Cons(then_goal, node->next, node->cut_depth);
        rest = Cons(commit, rest, node->cut_depth);
        *goals = Cons(condition, rest, static_cast<uint32_t>(cps_.size()));
      } else {
        *goals = Cons(condition, node->next, node->cut_depth);
      }
      return StepResult::kAdvance;
    }
    case Control::kIteCommit: {
      int64_t cp_index = IntValue(store_->Deref(store_->Arg(goal, 0)));
      CutTo(static_cast<size_t>(cp_index));
      *goals = node->next;
      return StepResult::kAdvance;
    }
    case Control::kNegation: {
      size_t trail_mark = store_->TrailMark();
      size_t heap_mark = store_->HeapMark();
      bool found = false;
      const GoalNode* sub = Cons(store_->Arg(goal, 0), nullptr,
                                 static_cast<uint32_t>(cps_.size()));
      Status status = Run(sub, [&found]() {
        found = true;
        return SolveAction::kStop;
      });
      store_->UndoTrail(trail_mark);
      store_->TruncateHeap(heap_mark);
      if (!status.ok()) {
        SetError(status);
        return StepResult::kError;
      }
      if (found) return StepResult::kBacktrack;
      *goals = node->next;
      return StepResult::kAdvance;
    }
    case Control::kTnot:
    case Control::kETnot: {
      if (handler_ == nullptr) {
        SetError(InvalidError("tnot/e_tnot require the tabling evaluator"));
        return StepResult::kError;
      }
      switch (handler_->OnNegation(this, store_->Arg(goal, 0), node->next,
                                   control == Control::kETnot)) {
        case TabledCallHandler::CallOutcome::kFail:
          return StepResult::kBacktrack;
        case TabledCallHandler::CallOutcome::kContinue:
          *goals = node->next;
          return StepResult::kAdvance;
        case TabledCallHandler::CallOutcome::kError:
          return StepResult::kError;
      }
      break;
    }
    case Control::kTFindall: {
      if (handler_ == nullptr) {
        SetError(InvalidError("tfindall/3 requires the tabling evaluator"));
        return StepResult::kError;
      }
      switch (handler_->OnTFindall(this, store_->Arg(goal, 0),
                                   store_->Arg(goal, 1), store_->Arg(goal, 2),
                                   node->next)) {
        case TabledCallHandler::CallOutcome::kFail:
          return StepResult::kBacktrack;
        case TabledCallHandler::CallOutcome::kContinue:
          *goals = node->next;
          return StepResult::kAdvance;
        case TabledCallHandler::CallOutcome::kError:
          return StepResult::kError;
      }
      break;
    }
    case Control::kTabledAnswer: {
      if (handler_ == nullptr) {
        SetError(InvalidError("orphan $tabled_answer"));
        return StepResult::kError;
      }
      int64_t index = IntValue(store_->Deref(store_->Arg(goal, 0)));
      switch (handler_->OnTabledAnswer(this, index, store_->Arg(goal, 1))) {
        case TabledCallHandler::CallOutcome::kFail:
          return StepResult::kBacktrack;
        case TabledCallHandler::CallOutcome::kContinue:
          *goals = node->next;
          return StepResult::kAdvance;
        case TabledCallHandler::CallOutcome::kError:
          return StepResult::kError;
      }
      break;
    }
    case Control::kResolveClauses: {
      Word inner = store_->Deref(store_->Arg(goal, 0));
      if (!IsAtom(inner) && !IsStruct(inner)) {
        SetError(TypeError("$resolve_clauses argument not callable"));
        return StepResult::kError;
      }
      FunctorId inner_functor = IsAtom(inner) ? AtomFunctor(AtomOf(inner))
                                              : store_->StructFunctor(inner);
      return CallUserPredicate(inner, inner_functor, node->next,
                               node->cut_depth,
                               /*force_clause_resolution=*/true, goals);
    }
  }

  // --- HiLog bridge ------------------------------------------------------------
  // apply(F, Args...) where F is an atom NOT declared hilog is the same goal
  // as the first-order F(Args...): rewrite before tabling/builtin dispatch,
  // so `Graph(X,Y)` with Graph = edge runs against edge/2 (section 4.7).
  if (symbols->FunctorAtom(functor) == symbols->apply() &&
      symbols->FunctorArity(functor) >= 2 && IsStruct(goal)) {
    Word head = store_->Deref(store_->Arg(goal, 0));
    if (IsAtom(head) && !program_->IsHilogAtom(AtomOf(head))) {
      int arity = symbols->FunctorArity(functor) - 1;
      Word fo_goal;
      if (arity == 0) {
        fo_goal = head;
      } else {
        FunctorId fo = symbols->InternFunctor(AtomOf(head), arity);
        std::vector<Word> args(static_cast<size_t>(arity));
        for (int i = 0; i < arity; ++i) args[i] = store_->Arg(goal, i + 1);
        fo_goal = store_->MakeStruct(fo, args);
      }
      *goals = Cons(fo_goal, node->next, node->cut_depth);
      return StepResult::kAdvance;
    }
  }

  // --- Builtins ----------------------------------------------------------------
  FunctorEntry& entry = Entry(functor);
  if (!entry.builtin_known) {
    entry.builtin = builtins_->Find(functor);
    entry.builtin_known = true;
  }
  BuiltinFn builtin = entry.builtin;
  if (builtin != nullptr) {
    ++stats_.builtin_calls;
    pending_goals_.clear();
    BuiltinResult result = builtin(*this, goal, node);
    switch (result) {
      case BuiltinResult::kTrue: {
        const GoalNode* g = node->next;
        for (auto it = pending_goals_.rbegin(); it != pending_goals_.rend();
             ++it) {
          uint32_t cut_depth = it->second
                                   ? static_cast<uint32_t>(cps_.size())
                                   : node->cut_depth;
          g = Cons(it->first, g, cut_depth);
        }
        pending_goals_.clear();
        *goals = g;
        return StepResult::kAdvance;
      }
      case BuiltinResult::kFail:
        return StepResult::kBacktrack;
      case BuiltinResult::kError:
        return StepResult::kError;
    }
  }

  // --- User predicates -----------------------------------------------------------
  return CallUserPredicate(goal, functor, node->next, node->cut_depth,
                           /*force_clause_resolution=*/false, goals);
}

Status Machine::Run(const GoalNode* goals, const SolutionFn& on_solution) {
  size_t base_cp = cps_.size();
  size_t arena_mark = arena_.size();
  size_t trail_mark = store_->TrailMark();
  size_t heap_mark = store_->HeapMark();
  const GoalNode* g = goals;
  bool saved_stop = stop_requested_;
  stop_requested_ = false;
  auto finish = [&](Status status) {
    stop_requested_ = saved_stop;
    arena_.Truncate(arena_mark);
    return status;
  };
  auto exhausted = [&]() {
    store_->UndoTrail(trail_mark);
    store_->TruncateHeap(heap_mark);
    return finish(Status::Ok());
  };

  while (true) {
    if (stop_requested_) {
      CutTo(base_cp);
      return finish(Status::Ok());
    }
    if (g == nullptr) {
      SolveAction action = on_solution();
      if (stop_requested_ || action == SolveAction::kStop) {
        CutTo(base_cp);
        return finish(Status::Ok());
      }
      if (!Backtrack(base_cp, &g)) return exhausted();
      continue;
    }
    switch (DispatchGoal(&g)) {
      case StepResult::kAdvance:
        continue;
      case StepResult::kBacktrack:
        if (!Backtrack(base_cp, &g)) return exhausted();
        continue;
      case StepResult::kError: {
        Status status = error_;
        error_ = Status::Ok();
        CutTo(base_cp);
        return finish(status);
      }
      default:
        continue;
    }
  }
}

Status Machine::Solve(Word goal, const SolutionFn& on_solution) {
  size_t arena_mark = arena_.size();
  const GoalNode* g = Cons(goal, nullptr, static_cast<uint32_t>(cps_.size()));
  Status status = Run(g, on_solution);
  arena_.Truncate(arena_mark);
  return status;
}

Result<bool> Machine::SolveOnce(Word goal) {
  bool found = false;
  Status status = Solve(goal, [&found]() {
    found = true;
    return SolveAction::kStop;
  });
  if (!status.ok()) return status;
  return found;
}

Result<size_t> Machine::CountSolutions(Word goal) {
  size_t trail_mark = store_->TrailMark();
  size_t heap_mark = store_->HeapMark();
  size_t count = 0;
  Status status = Solve(goal, [&count]() {
    ++count;
    return SolveAction::kContinue;
  });
  store_->UndoTrail(trail_mark);
  store_->TruncateHeap(heap_mark);
  if (!status.ok()) return status;
  return count;
}

Result<std::vector<FlatTerm>> Machine::FindAll(Word templ, Word goal) {
  size_t trail_mark = store_->TrailMark();
  size_t heap_mark = store_->HeapMark();
  std::vector<FlatTerm> out;
  Status status = Solve(goal, [&]() {
    // Flatten into the persistent scratch (no growth reallocations once it
    // is warm), then copy out at exact size — one allocation per instance.
    if (FlattenInto(*store_, templ, &findall_scratch_)) {
      ++stats_.findall_flatten_reuses;
    }
    out.push_back(findall_scratch_);
    return SolveAction::kContinue;
  });
  store_->UndoTrail(trail_mark);
  store_->TruncateHeap(heap_mark);
  if (!status.ok()) return status;
  return out;
}

Result<int64_t> Machine::EvalArith(Word expression) {
  Word e = store_->Deref(expression);
  if (IsInt(e)) return IntValue(e);
  if (IsRef(e)) {
    return InstantiationError("arithmetic on an unbound variable");
  }
  if (!IsStruct(e)) return TypeError("bad arithmetic expression");
  FunctorId f = store_->StructFunctor(e);
  int arity = store_->symbols()->FunctorArity(f);
  if (arity != 1 && arity != 2) {
    return TypeError("bad arithmetic expression");
  }
  Result<int64_t> a = EvalArith(store_->Arg(e, 0));
  if (!a.ok()) return a;
  int64_t x = a.value();
  int64_t y = 0;
  if (arity == 2) {
    Result<int64_t> b = EvalArith(store_->Arg(e, 1));
    if (!b.ok()) return b;
    y = b.value();
  }
  ArithOp op = f < arith_ops_.size() ? static_cast<ArithOp>(arith_ops_[f])
                                     : kNoOp;
  switch (op) {
    case kNeg:
      return -x;
    case kPlus:
      return x;
    case kAbs:
      return x < 0 ? -x : x;
    case kSign:
      return x > 0 ? 1 : (x < 0 ? -1 : 0);
    case kBitNot:
      return ~x;
    case kAdd:
      return x + y;
    case kSub:
      return x - y;
    case kMul:
      return x * y;
    case kDiv:
      if (y == 0) return TypeError("zero divisor");
      return x / y;
    case kMod: {
      if (y == 0) return TypeError("zero divisor");
      int64_t m = x % y;
      if (m != 0 && ((m < 0) != (y < 0))) m += y;
      return m;
    }
    case kRem:
      if (y == 0) return TypeError("zero divisor");
      return x % y;
    case kMin:
      return x < y ? x : y;
    case kMax:
      return x > y ? x : y;
    case kShr:
      return x >> y;
    case kShl:
      return x << y;
    case kBitAnd:
      return x & y;
    case kBitOr:
      return x | y;
    case kXor:
      return x ^ y;
    case kPow: {
      int64_t r = 1;
      for (int64_t i = 0; i < y; ++i) r *= x;
      return r;
    }
    case kNoOp:
      break;
  }
  const SymbolTable* symbols = store_->symbols();
  return TypeError("unknown arithmetic function " +
                   symbols->AtomName(symbols->FunctorAtom(f)) + "/" +
                   std::to_string(arity));
}

}  // namespace xsb
