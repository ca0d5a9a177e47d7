#include "term/flat.h"

#include <unordered_map>

namespace xsb {

void FlattenAppend(const TermStore& store, Word t, std::vector<Word>* out,
                   std::vector<uint64_t>* var_cells) {
  // Variable numbering by first occurrence; terms rarely have more than a
  // handful of variables, so a linear scan beats a hash map here.
  // Preorder walk. The work stack holds cells still to emit; children are
  // pushed in reverse so they pop in order.
  std::vector<Word> work{t};
  while (!work.empty()) {
    Word x = store.Deref(work.back());
    work.pop_back();
    switch (TagOf(x)) {
      case Tag::kRef: {
        uint64_t cell = PayloadOf(x);
        uint32_t ordinal = static_cast<uint32_t>(var_cells->size());
        for (uint32_t i = 0; i < var_cells->size(); ++i) {
          if ((*var_cells)[i] == cell) {
            ordinal = i;
            break;
          }
        }
        if (ordinal == var_cells->size()) var_cells->push_back(cell);
        out->push_back(LocalCell(ordinal));
        break;
      }
      case Tag::kAtom:
      case Tag::kInt:
        out->push_back(x);
        break;
      case Tag::kStruct: {
        FunctorId f = store.StructFunctor(x);
        out->push_back(FunctorCell(f));
        int arity = store.symbols()->FunctorArity(f);
        for (int i = arity - 1; i >= 0; --i) work.push_back(store.Arg(x, i));
        break;
      }
      default:
        // kFunctor / kLocal never appear as heap terms.
        out->push_back(x);
        break;
    }
  }
}

FlatTerm Flatten(const TermStore& store, Word t) {
  FlatTerm out;
  std::vector<uint64_t> var_cells;
  FlattenAppend(store, t, &out.cells, &var_cells);
  out.num_vars = static_cast<uint32_t>(var_cells.size());
  return out;
}

bool FlattenInto(const TermStore& store, Word t, FlatTerm* out) {
  size_t cap_before = out->cells.capacity();
  out->cells.clear();
  std::vector<uint64_t> var_cells;
  FlattenAppend(store, t, &out->cells, &var_cells);
  out->num_vars = static_cast<uint32_t>(var_cells.size());
  return out->cells.capacity() == cap_before;
}

namespace {

// Rebuilds the subterm starting at stream position *pos; advances *pos.
Word UnflattenAt(TermStore* store, const FlatTerm& flat, size_t* pos,
                 std::vector<Word>* vars) {
  Word w = flat.cells[(*pos)++];
  switch (TagOf(w)) {
    case Tag::kLocal: {
      uint64_t ord = PayloadOf(w);
      Word& slot = (*vars)[ord];
      if (slot == kUnsetSlot) slot = store->MakeVar();
      return slot;
    }
    case Tag::kAtom:
    case Tag::kInt:
      return w;
    case Tag::kFunctor: {
      FunctorId f = FunctorOf(w);
      int arity = store->symbols()->FunctorArity(f);
      // Allocate the struct block first so nested blocks land after it; the
      // args are patched as they are built.
      Word s = store->MakeStructUninit(f);
      for (int i = 0; i < arity; ++i) {
        Word a = UnflattenAt(store, flat, pos, vars);
        store->SetArg(s, i, a);
      }
      return s;
    }
    default:
      return w;  // malformed stream; callers control inputs
  }
}

}  // namespace

Word Unflatten(TermStore* store, const FlatTerm& flat,
               std::vector<Word>* vars) {
  std::vector<Word> local_vars;
  if (vars == nullptr) vars = &local_vars;
  if (vars->size() < flat.num_vars) vars->resize(flat.num_vars, kUnsetSlot);
  size_t pos = 0;
  return UnflattenAt(store, flat, &pos, vars);
}

Word UnflattenNext(TermStore* store, const FlatTerm& flat, size_t* pos,
                   std::vector<Word>* vars) {
  return UnflattenAt(store, flat, pos, vars);
}

bool UnifyFlat(TermStore* store, const FlatTerm& flat, size_t* pos_io,
               Word t, std::vector<Word>* vars, std::vector<uint64_t>* work) {
  // The flat side is walked in stream order. `work` holds the heap side's
  // pending argument runs as (next cell, end cell) pairs; arguments are
  // consecutive heap cells, so one pair covers a whole struct.
  const std::vector<Word>& cells = flat.cells;
  const SymbolTable* symbols = store->symbols();
  size_t pos = *pos_io;
  work->clear();
  Word x = t;
  while (true) {
    x = store->Deref(x);
    Word w = cells[pos];
    switch (TagOf(w)) {
      case Tag::kLocal: {
        ++pos;
        Word& slot = (*vars)[PayloadOf(w)];
        if (slot == kUnsetSlot) {
          slot = x;
        } else if (!store->Unify(slot, x)) {
          return false;
        }
        break;
      }
      case Tag::kFunctor: {
        if (IsRef(x)) {
          store->Bind(x, UnflattenAt(store, flat, &pos, vars));
          break;
        }
        if (!IsStruct(x) || store->StructFunctor(x) != FunctorOf(w)) {
          return false;
        }
        ++pos;
        uint64_t first = store->ArgIndex(x, 0);
        work->push_back(first);
        work->push_back(first + symbols->FunctorArity(FunctorOf(w)));
        break;
      }
      default:  // atom or integer
        ++pos;
        if (IsRef(x)) {
          store->Bind(x, w);
        } else if (x != w) {
          return false;
        }
        break;
    }
    // Next pending heap argument, if any.
    while (!work->empty() && (*work)[work->size() - 2] == work->back()) {
      work->resize(work->size() - 2);
    }
    if (work->empty()) {
      *pos_io = pos;
      return true;
    }
    x = store->At((*work)[work->size() - 2]++);
  }
}

bool FlatTopFunctor(const FlatTerm& flat, FunctorId* functor) {
  if (flat.cells.empty() || !IsFunctor(flat.cells[0])) return false;
  *functor = FunctorOf(flat.cells[0]);
  return true;
}

}  // namespace xsb
