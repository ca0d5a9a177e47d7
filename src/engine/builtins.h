#ifndef XSB_ENGINE_BUILTINS_H_
#define XSB_ENGINE_BUILTINS_H_

#include <unordered_map>

#include "engine/machine.h"

namespace xsb {

// Outcome of a builtin predicate call.
enum class BuiltinResult {
  kTrue,   // deterministic success; continue with the next goal
  kFail,   // failure, or a choice point was pushed that the backtracker
           // should now enter
  kError,  // machine->SetError was called
};

// A BuiltinFn (engine/machine.h) gets the goal and `node`, the resolvent
// node of the call (its ->next is the continuation; its cut_depth the
// enclosing clause's cut barrier).

// The table of builtin predicates, keyed by functor. One per Machine, since
// functor ids are SymbolTable-relative.
class BuiltinRegistry {
 public:
  explicit BuiltinRegistry(SymbolTable* symbols);

  BuiltinFn Find(FunctorId functor) const {
    auto it = table_.find(functor);
    return it == table_.end() ? nullptr : it->second;
  }

 private:
  void Register(SymbolTable* symbols, const char* name, int arity,
                BuiltinFn fn);
  std::unordered_map<FunctorId, BuiltinFn> table_;
};

}  // namespace xsb

#endif  // XSB_ENGINE_BUILTINS_H_
