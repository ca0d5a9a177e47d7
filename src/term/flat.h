#ifndef XSB_TERM_FLAT_H_
#define XSB_TERM_FLAT_H_

#include <cstddef>
#include <vector>

#include "term/cell.h"
#include "term/store.h"

namespace xsb {

// A relocatable, heap-independent term image: the preorder stream of the
// term's cells, with variables renamed to kLocal(0), kLocal(1), ... in order
// of first occurrence. Struct cells are replaced by their functor cell
// followed by the flattened arguments, so the stream is self-describing.
//
// FlatTerms serve three roles, exactly as table space does in the SLG-WAM:
//   * clause templates in the clause database,
//   * canonical forms for tabled-subgoal variant checking,
//   * stored answers in answer tables.
//
// Two terms are variants iff their FlatTerms are element-wise equal.
struct FlatTerm {
  std::vector<Word> cells;
  uint32_t num_vars = 0;

  bool operator==(const FlatTerm& other) const {
    return cells == other.cells;
  }

  bool ground() const { return num_vars == 0; }
  size_t size() const { return cells.size(); }
};

// FNV-style hash over the cell stream.
struct FlatTermHash {
  size_t operator()(const FlatTerm& t) const {
    uint64_t h = 1469598103934665603ULL;
    for (Word w : t.cells) {
      h ^= w;
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

// Flattens the (possibly partially bound) heap term `t`.
FlatTerm Flatten(const TermStore& store, Word t);

// Flattens `t` into *out, reusing out's cell capacity (findall's per-instance
// scratch). Returns true when the existing capacity sufficed — i.e. the call
// performed no cell-vector allocation.
bool FlattenInto(const TermStore& store, Word t, FlatTerm* out);

// Appends the flattened form of `t` to *out, numbering variables by first
// occurrence across the whole stream being built: `var_cells` carries the
// heap addresses already assigned ordinals 0..var_cells->size()-1 and grows
// as new variables appear. Substitution factoring builds an answer's binding
// list as a sequence of such appends sharing one numbering.
void FlattenAppend(const TermStore& store, Word t, std::vector<Word>* out,
                   std::vector<uint64_t>* var_cells);

// Value of a variable slot that has no cell yet. Tag 7 is unused, so no heap
// word equals it; 0 would not do, since it is RefCell(0), the variable at
// heap cell 0.
inline constexpr Word kUnsetSlot = ~Word{0};

// Rebuilds `flat` on the heap with fresh variables. If `vars` is non-null it
// receives the cell chosen for each local variable ordinal (resized by the
// call, new slots kUnsetSlot); passing the same vars vector to several
// Unflatten calls shares variables across them.
Word Unflatten(TermStore* store, const FlatTerm& flat,
               std::vector<Word>* vars = nullptr);

// Rebuilds the single subterm starting at stream position *pos of `flat`,
// advancing *pos past it. `vars` must already be sized to cover every kLocal
// ordinal in the segment; a slot already set is reused, an unset one
// (kUnsetSlot) gets a fresh variable. Used to unflatten a concatenation of
// stored segments (e.g. the binding list of a factored answer) one term at a
// time.
Word UnflattenNext(TermStore* store, const FlatTerm& flat, size_t* pos,
                   std::vector<Word>* vars);

// Unifies the heap term `t` with the subterm of `flat` starting at stream
// position *pos, without rebuilding that subterm first (clause-head
// matching, answer return). The first occurrence of a local variable whose
// slot in `vars` is unset takes the heap subterm it meets as its value;
// later occurrences unify with it. Cells are built only where a flat struct
// meets an unbound heap variable. `vars` must cover every ordinal in the
// subterm. `work` is caller-owned scratch. On success *pos is past the
// subterm. Returns false on a mismatch, leaving the bindings made so far on
// the trail for the caller to unwind.
bool UnifyFlat(TermStore* store, const FlatTerm& flat, size_t* pos, Word t,
               std::vector<Word>* vars, std::vector<uint64_t>* work);

// Reads the top functor of a flattened term without rebuilding it.
// Returns true and sets *functor if the term is a struct.
bool FlatTopFunctor(const FlatTerm& flat, FunctorId* functor);

}  // namespace xsb

#endif  // XSB_TERM_FLAT_H_
